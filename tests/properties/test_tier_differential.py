"""Differential property tests across all execution tiers.

The tree-walking interpreter is the semantic oracle; the pre-decoded
closure interpreter and the JIT must agree with it on every generated
program — results, traps, and (for the decoded tier) step accounting.
The mixed ``tiered`` mode must agree on both sides of the promotion
threshold, since a workload may cross it mid-run, and ``tiered-bg``
must agree while calls, ``invalidate()`` and background tier-up
interleave across threads.
"""

import struct
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir import parse_module
from repro.ir.function import Module
from repro.obs import events
from repro.obs.profiler import classify_frame
from repro.obs.telemetry import Telemetry
from repro.vm import (
    POLICIES,
    DecodeError,
    ExecutionEngine,
    StepLimitExceeded,
    Trap,
    decode_function,
)

from .strategies import (
    arguments_for,
    build_float_program,
    build_program,
    float_program_specs,
    program_specs,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALL_TIERS = ("interp", "decoded", "jit", "tiered", "tiered-bg")


def _run_tier(module_text, name, args, tier, **engine_kwargs):
    """Run one tier on a freshly parsed module, classifying the outcome.

    Trap diagnostics differ per tier, so equivalence is at the
    trap/no-trap level.  Hard memory faults surface as ``MemoryError``
    from the bounds-checked accessors (interp/decoded) but as
    ``struct.error`` from the JIT's specialized packers — both are the
    same fault class.
    """
    module = parse_module(module_text)
    engine = ExecutionEngine(module, tier=tier, **engine_kwargs)
    try:
        return ("ok", engine.run(name, *args))
    except Trap:
        return ("trap", None)
    except (MemoryError, struct.error):
        return ("memfault", None)


class TestIntPrograms:
    @SETTINGS
    @given(data=st.data())
    def test_all_tiers_agree(self, data):
        spec = data.draw(program_specs())
        args = data.draw(arguments_for(spec))
        module = Module("prop")
        build_program(spec, module, "prog")
        from repro.ir import print_module

        text = print_module(module)
        oracle = _run_tier(text, "prog", args, "interp")
        for tier in ("decoded", "jit", "tiered", "tiered-bg"):
            assert _run_tier(text, "prog", args, tier) == oracle, tier

    @SETTINGS
    @given(data=st.data())
    def test_tiered_agrees_across_promotion_threshold(self, data):
        """Repeated calls promote decoded -> JIT; results must not change."""
        spec = data.draw(program_specs())
        args = data.draw(arguments_for(spec))
        module = Module("prop")
        build_program(spec, module, "prog")
        engine = ExecutionEngine(module, tier="tiered", call_threshold=3)
        results = {engine.run("prog", *args) for _ in range(6)}
        assert len(results) == 1
        snapshot = engine.stats_snapshot()
        assert snapshot["counters"]["tier.promote"] == 1


class TestFloatPrograms:
    @SETTINGS
    @given(data=st.data())
    def test_all_tiers_agree(self, data):
        spec = data.draw(float_program_specs())
        a = data.draw(st.floats(min_value=-1e9, max_value=1e9,
                                allow_nan=False))
        b = data.draw(st.floats(min_value=-1e9, max_value=1e9,
                                allow_nan=False))
        module = Module("prop")
        build_float_program(spec, module, "fprog")
        from repro.ir import print_module

        text = print_module(module)
        oracle = _run_tier(text, "fprog", (a, b), "interp")
        for tier in ("decoded", "jit", "tiered", "tiered-bg"):
            assert _run_tier(text, "fprog", (a, b), tier) == oracle, tier


class TestThreadedBackgroundTierUp:
    """``tiered-bg`` under concurrency: generated programs hammered from
    several threads while the main thread interleaves ``invalidate()``
    and the compile queue races to publish — every outcome must match
    the single-threaded interpreter oracle."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_concurrent_calls_and_invalidation_match_oracle(self, data):
        spec = data.draw(program_specs())
        args = data.draw(arguments_for(spec))
        module = Module("prop")
        build_program(spec, module, "prog")
        from repro.ir import print_module

        text = print_module(module)
        oracle = _run_tier(text, "prog", args, "interp")

        run_module = parse_module(text)
        engine = ExecutionEngine(run_module, tier="tiered-bg",
                                 call_threshold=2)
        func = run_module.get_function("prog")
        outcomes = []
        lock = threading.Lock()

        def classify():
            try:
                out = ("ok", engine.run("prog", *args))
            except Trap:
                out = ("trap", None)
            except (MemoryError, struct.error):
                out = ("memfault", None)
            with lock:
                outcomes.append(out)

        def worker():
            for _ in range(4):
                classify()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        engine.invalidate(func)  # race the in-flight promotion
        for thread in threads:
            thread.join(10.0)
        assert engine.drain_background(10.0)
        classify()  # the published (or re-decoded) code post-drain
        engine.shutdown_background()
        assert set(outcomes) == {oracle}


#: hand-written programs that trap (or not) in interesting ways; the
#: generated programs above are structurally trap-free, so these pin the
#: trap-equivalence half of the contract.  Messages differ across tiers
#: (each reports its own diagnostic) — only trap/no-trap must agree.
TRAP_PROGRAMS = [
    ("sdiv-zero", """
define i64 @f(i64 %a) {
entry:
  %r = sdiv i64 %a, 0
  ret i64 %r
}
""", (7,)),
    ("sdiv-overflow", """
define i8 @f(i8 %a, i8 %b) {
entry:
  %r = sdiv i8 %a, %b
  ret i8 %r
}
""", (-128, -1)),
    ("srem-zero", """
define i64 @f(i64 %a) {
entry:
  %r = srem i64 %a, 0
  ret i64 %r
}
""", (7,)),
    ("shift-oor", """
define i64 @f(i64 %a, i64 %s) {
entry:
  %r = shl i64 %a, %s
  ret i64 %r
}
""", (1, 64)),
    ("fdiv-zero", """
define double @f(double %a) {
entry:
  %r = fdiv double %a, 0.0
  ret double %r
}
""", (1.5,)),
    ("frem-zero", """
define double @f(double %a) {
entry:
  %r = frem double %a, 0.0
  ret double %r
}
""", (1.5,)),
    ("unreachable", """
define i64 @f() {
entry:
  unreachable
}
""", ()),
    ("null-load", """
define i64 @f() {
entry:
  %r = load i64, i64* null
  ret i64 %r
}
""", ()),
    ("no-trap-udiv", """
define i64 @f(i64 %a) {
entry:
  %r = udiv i64 %a, 3
  ret i64 %r
}
""", (-1,)),
    ("no-trap-wrap", """
define i8 @f(i8 %a) {
entry:
  %r = add i8 %a, 1
  ret i8 %r
}
""", (127,)),
]


class TestTrapEquivalence:
    @pytest.mark.parametrize(
        "name,text,args", TRAP_PROGRAMS, ids=[t[0] for t in TRAP_PROGRAMS]
    )
    def test_trap_agreement(self, name, text, args):
        outcomes = {
            tier: _run_tier(text, "f", args, tier)[0]
            for tier in ALL_TIERS
        }
        assert len(set(outcomes.values())) == 1, outcomes

    def test_trapping_results_match_when_ok(self):
        # the no-trap cases must also agree on the value itself
        for name, text, args in TRAP_PROGRAMS:
            runs = [_run_tier(text, "f", args, tier) for tier in ALL_TIERS]
            assert len(set(runs)) == 1, (name, runs)


class TestStepAccounting:
    SRC = """
define i64 @f(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, %n
  br i1 %c, label %loop, label %out
out:
  ret i64 %i1
}
"""

    def test_decoded_step_limit_fires(self):
        module = parse_module(self.SRC)
        engine = ExecutionEngine(module, tier="decoded",
                                 interp_step_limit=50)
        with pytest.raises(StepLimitExceeded):
            engine.run("f", 1000)

    def test_decoded_step_limit_spares_short_runs(self):
        module = parse_module(self.SRC)
        engine = ExecutionEngine(module, tier="decoded",
                                 interp_step_limit=50)
        assert engine.run("f", 3) == 3

    def test_decoded_and_interp_agree_on_effects(self):
        """A store is observable through memory regardless of tier."""
        src = """
define i64 @f(i64* %p) {
entry:
  store i64 41, i64* %p
  %v = load i64, i64* %p
  %r = add i64 %v, 1
  ret i64 %r
}
"""
        from repro.vm import MemoryBuffer, load_scalar

        from repro.ir import types as T

        for tier in ALL_TIERS:
            module = parse_module(src)
            engine = ExecutionEngine(module, tier=tier)
            buf = MemoryBuffer(8, "cell")
            assert engine.run("f", (buf, 0)) == 42
            assert load_scalar(T.i64, (buf, 0)) == 41


class TestDecodeFallback:
    def test_declaration_raises_decode_error(self):
        module = parse_module("declare i64 @ext(i64)")
        engine = ExecutionEngine(module, tier="decoded")
        with pytest.raises(DecodeError):
            decode_function(module.get_function("ext"), engine)


#: what ``obs.profiler.classify_frame`` calls each preset's entry frame
FRAME_TIERS = {
    "jit": "jit", "interp": "interp", "decoded": "decoded",
    "tiered": "tiered-dispatch", "tiered-bg": "tiered-bg-dispatch",
    "speculative": "speculative-dispatch",
}


@pytest.mark.parametrize("tier", POLICIES)
class TestPolicyTable:
    """Every preset of ``POLICIES`` through the one dispatcher: same
    results as the oracle, promotion on either threshold, a fresh start
    after ``invalidate()``, tenant-scoped hotness, stable frame labels."""

    @staticmethod
    def _engine(tier, **kwargs):
        module = parse_module(TestStepAccounting.SRC)
        engine = ExecutionEngine(module, tier=tier, **kwargs)
        return engine, module.get_function("f")

    @staticmethod
    def _settle(engine):
        assert engine.drain_background(5.0)
        return engine.tier_promotions

    def test_result_matches_interp_across_promotion(self, tier):
        oracle, _ = self._engine("interp")
        engine, _ = self._engine(tier, call_threshold=3)
        results = [engine.run("f", 40) for _ in range(6)]
        self._settle(engine)
        results.append(engine.run("f", 40))
        engine.shutdown_background()
        assert set(results) == {oracle.run("f", 40)}

    def test_promotes_on_either_threshold(self, tier):
        promotes = 1 if POLICIES[tier].promote else 0

        def hot_events(engine):
            return [e["name"] for e in engine.telemetry.events
                    if e["name"] in (events.PROFILE_CALL_HOT,
                                     events.PROFILE_BACKEDGE_HOT)]

        engine, _ = self._engine(tier, call_threshold=3,
                                 backedge_threshold=10**6,
                                 telemetry=Telemetry())
        for _ in range(5):
            engine.run("f", 2)
        assert self._settle(engine) == promotes
        engine.shutdown_background()
        assert hot_events(engine) == [events.PROFILE_CALL_HOT] * promotes
        # one long call trips the backedge counter; promotion is checked
        # at call boundaries, so it is the next call that promotes
        engine, _ = self._engine(tier, call_threshold=10**6,
                                 backedge_threshold=16,
                                 telemetry=Telemetry())
        engine.run("f", 100)
        assert self._settle(engine) == 0
        engine.run("f", 100)
        assert self._settle(engine) == promotes
        engine.shutdown_background()
        assert hot_events(engine) == [events.PROFILE_BACKEDGE_HOT] * promotes

    def test_invalidate_yields_a_fresh_box_and_demoted_counters(self, tier):
        engine, func = self._engine(tier, call_threshold=2)
        for _ in range(4):
            engine.run("f", 5)
        self._settle(engine)
        box = engine._boxes.get("f")
        if not POLICIES[tier].promote:
            assert box is None
            return
        assert box.requested and box.value is not None
        engine.invalidate(func)
        assert "f" not in engine._boxes
        profile = engine.profiler.profile_for("f")
        assert (profile.calls, profile.backedges, profile.promoted) == (
            0, 0, False)
        assert engine.run("f", 5) == 5
        fresh = engine._boxes["f"]
        assert fresh is not box
        assert (fresh.value, fresh.requested) == (None, False)
        assert fresh.generation == box.generation + 1
        engine.shutdown_background()

    def test_tenant_scope_charges_the_tenants_profile(self, tier):
        engine, _ = self._engine(tier, call_threshold=3)
        with engine.profiler.tenant_scope("alice"):
            engine.run("f", 5)
            engine.run("f", 5)
        assert engine.profiler.snapshot() == {}  # nothing in the default scope
        tenants = engine.profiler.tenant_snapshot()
        if POLICIES[tier].promote:
            assert tenants == {"alice": {"f": {
                "calls": 2, "backedges": 8, "promoted": False}}}
        else:
            assert tenants == {}

    def test_entry_frame_label_is_what_the_profiler_keys_on(self, tier):
        engine, func = self._engine(tier)
        thunk = engine.get_compiled(func)
        assert classify_frame(thunk.__code__.co_name) == (
            FRAME_TIERS[tier], "f")
        if tier != "jit":
            assert thunk.__name__ == f"{POLICIES[tier].label}_f"


PROBED = """
declare i64 @probe(i64)

define i64 @g(i64 %x) {
entry:
  %r = call i64 @probe(i64 %x)
  ret i64 %r
}
"""


@pytest.mark.parametrize("tier", ["tiered", "tiered-bg"])
def test_promoted_call_is_dispatcher_frame_then_jit_frame(tier):
    engine = ExecutionEngine(parse_module(PROBED), tier=tier,
                             call_threshold=2)
    stacks = []

    def probe(x):
        names = []
        frame = sys._getframe(1)
        while frame.f_code is not ExecutionEngine.call.__code__:
            names.append(frame.f_code.co_name)
            frame = frame.f_back
        stacks.append(names)
        return x

    engine.add_native("probe", probe)
    for _ in range(4):
        assert engine.run("g", 7) == 7
    assert engine.drain_background(5.0)
    # the first JIT'd call still patches the callee's lazy trampoline
    for _ in range(2):
        assert engine.run("g", 7) == 7
    engine.shutdown_background()
    label = POLICIES[tier].label
    # innermost first; the native handle's own ``__call__`` is the callee
    assert stacks[-1] == ["__call__", "_jit_g", f"{label}_g"]
