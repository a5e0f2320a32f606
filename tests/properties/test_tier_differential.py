"""Differential property tests across all execution tiers.

The tree-walking interpreter is the semantic oracle; the pre-decoded
closure interpreter and the JIT must agree with it on every generated
program — results, traps, and (for the decoded tier) step accounting.
The mixed ``tiered`` mode must agree on both sides of the promotion
threshold, since a workload may cross it mid-run, and ``tiered`` and
``speculative`` must agree while calls, ``invalidate()`` and the
callers' own tier-ups interleave across threads.
"""

import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir import parse_module
from repro.ir.function import Module
from repro.obs import events
from repro.obs.telemetry import Telemetry
from repro.vm import (
    POLICIES,
    TIERS,
    DecodeError,
    ExecutionEngine,
    Trap,
    decode_function,
)

from .strategies import (
    arguments_for,
    build_float_program,
    build_program,
    float_program_specs,
    memory_programs,
    program_specs,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALL_TIERS = ("interp", "decoded", "jit", "tiered", "speculative")

#: the promoting presets the threaded suites run their callers against
THREADED_TIERS = ("tiered", "speculative")


def _run_tier(module_text, name, args, tier, **engine_kwargs):
    """Run one tier on a freshly parsed module, classifying the outcome.

    Trap diagnostics differ per tier, so equivalence is at the level
    of the trap's class: a memory fault is ``MemoryFault`` on every
    tier, and never equals a division trap.
    """
    module = parse_module(module_text)
    return _outcome(ExecutionEngine(module, tier=tier, **engine_kwargs),
                    name, args)


def _outcome(engine, name, args):
    try:
        return ("ok", engine.run(name, *args))
    except Trap as trap:
        return ("trap", type(trap))


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
        for tier in ("decoded", "jit", "tiered", "speculative"):
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
        for tier in ("decoded", "jit", "tiered", "speculative"):
            assert _run_tier(text, "fprog", (a, b), tier) == oracle, tier


class TestMemoryPrograms:
    # a divergence needs a view bound by one access and then a wrong
    # index through it: rarer than an arithmetic one, so more draws
    @settings(SETTINGS, max_examples=150)
    @given(program=memory_programs())
    def test_every_preset_agrees_with_the_oracle(self, program):
        """Typed views against the oracle's bounds-checked accessors:
        every element format, on and off the view's grid, in bounds,
        below, past the end and after ``free``.  Three calls each, so
        ``tiered`` and ``speculative`` answer on both sides of their
        promotion."""
        text, trips = program
        oracle = _run_tier(text, "f", (trips,), "interp")
        for tier in TIERS:
            engine = ExecutionEngine(parse_module(text), tier=tier,
                                     call_threshold=2)
            for _ in range(3):
                assert _outcome(engine, "f", (trips,)) == oracle, tier


@pytest.mark.parametrize("tier", THREADED_TIERS)
class TestThreadedTierUp:
    """Promotion under concurrency: generated programs hammered from
    several threads, each promoting on its own thread, while the main
    thread interleaves ``invalidate()`` — every outcome must match the
    single-threaded interpreter oracle."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_concurrent_calls_and_invalidation_match_oracle(self, tier,
                                                            data):
        spec = data.draw(program_specs())
        args = data.draw(arguments_for(spec))
        module = Module("prop")
        build_program(spec, module, "prog")
        from repro.ir import print_module

        text = print_module(module)
        oracle = _run_tier(text, "prog", args, "interp")

        run_module = parse_module(text)
        engine = ExecutionEngine(run_module, tier=tier, call_threshold=2)
        func = run_module.get_function("prog")
        outcomes = []
        lock = threading.Lock()

        def classify():
            out = _outcome(engine, "prog", args)
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
        classify()  # the published (or re-decoded) code afterwards
        assert set(outcomes) == {oracle}


@pytest.mark.parametrize("tier", THREADED_TIERS)
class TestThreadedSlotRewrites:
    """A publication rewrites the call slots of JIT'd callers while they
    are being called: three threads keep calling a ``jit`` caller of a
    generated program, and the one whose call trips the threshold
    publishes the program (again after every ``invalidate()`` from a
    fourth thread) — every result must match the interpreter oracle."""

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_calls_through_slots_being_rewritten_match_oracle(self, tier,
                                                              data):
        spec = data.draw(program_specs())
        args = data.draw(arguments_for(spec))
        module = Module("prop")
        build_program(spec, module, "prog")
        from repro.ir import print_module

        ty = f"i{spec['bits']}"
        params = ", ".join(f"{ty} %a{i}" for i in range(spec["nargs"]))
        text = print_module(module) + f"""
define {ty} @drive({params}) {{
entry:
  %r = call {ty} @prog({params})
  ret {ty} %r
}}
"""
        oracle = _run_tier(text, "drive", args, "interp")

        run_module = parse_module(text)
        engine = ExecutionEngine(run_module, tier=tier, call_threshold=2)
        engine.set_tier(run_module.get_function("drive"), "jit")
        prog = run_module.get_function("prog")
        outcomes = []
        done = threading.Event()

        def classify():
            outcomes.append(_outcome(engine, "drive", args))

        def published():
            box = engine._boxes.get("prog")
            return box is not None and box.value is not None

        def invalidator():
            # let a caller publish (and rewrite the slot) mid-stream, then
            # start the function over, three times
            try:
                for _ in range(3):
                    deadline = time.monotonic() + 10.0
                    while not published() and time.monotonic() < deadline:
                        time.sleep(0.001)
                    engine.invalidate(prog)
            finally:
                done.set()

        def caller():
            while not done.is_set():
                classify()

        threads = [threading.Thread(target=invalidator)] + [
            threading.Thread(target=caller) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            caller()
            for thread in threads:
                thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # settle: re-earn the promotion and publish it
        for _ in range(4):
            classify()
        assert set(outcomes) == {oracle}
        assert engine.tier_promotions == 4
        assert (engine._compiled["drive"].__globals__["_f_prog"]
                is engine._boxes["prog"].value)


@pytest.mark.parametrize("tier", THREADED_TIERS)
class TestThreadedPointerCells:
    """Pointer cells under threads: two threads run b-trees -- one
    pointer store per child node, a load per visit -- on one shared
    engine while their calls promote the program, and every result
    must equal the interpreter oracle's."""

    def test_two_threads_running_btrees_match_oracle(self, tier):
        from repro.shootout.harness import compile_benchmark
        from repro.shootout.programs import SUITE

        bench = SUITE["b-trees"]
        oracle = ExecutionEngine(compile_benchmark(bench, "optimized"),
                                 tier="interp").run(bench.entry, 4)
        engine = ExecutionEngine(compile_benchmark(bench, "optimized"),
                                 tier=tier, call_threshold=2)
        results = []

        def runner():
            for _ in range(12):
                results.append(engine.run(bench.entry, 4))

        threads = [threading.Thread(target=runner) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [oracle] * 24
        assert engine.tier_promotions > 0


@pytest.mark.parametrize("tier", ["decoded", "jit"])
class TestThreadedFree:
    """``free`` racing compiled loops that read through a buffer's typed
    view (bound once in JIT'd code, per access in decoded closures):
    four reader threads share a buffer, and the free lands before a
    reader's bind, between its bind and its first access, or mid-loop.
    Every reader sees ``MemoryFault`` and nothing else -- never a value
    read from freed bytes, never a host error."""

    SRC = """
define i64 @spin(i64* %p, i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  %s = phi i64 [ 0, %entry ], [ %s1, %loop ]
  %k = and i64 %i, 7
  %q = getelementptr i64, i64* %p, i64 %k
  %v = load i64, i64* %q
  %s1 = add i64 %s, %v
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, %n
  br i1 %c, label %loop, label %out
out:
  ret i64 %s1
}
"""

    @pytest.mark.parametrize("delay", [0.0, 1e-4, 1e-3, 2e-2])
    def test_the_readers_see_only_the_fault(self, delay, tier):
        from repro.vm import MemoryBuffer, MemoryFault

        engine = ExecutionEngine(parse_module(self.SRC), tier=tier)
        engine.run("spin", (MemoryBuffer(64, "warm"), 0), 8)  # compiled
        outcomes = []

        def reader(buf, started):
            started.release()
            try:
                outcomes.append(engine.run("spin", (buf, 0), 10 ** 8))
            except Exception as error:  # noqa: BLE001 - the class is the test
                outcomes.append(type(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(2):
                buf = MemoryBuffer(64, "shared")
                started = threading.Semaphore(0)
                threads = [threading.Thread(target=reader,
                                            args=(buf, started))
                           for _ in range(4)]
                for thread in threads:
                    thread.start()
                for _ in threads:
                    assert started.acquire(timeout=10.0)
                time.sleep(delay)
                engine._natives["free"].callable((buf, 0))
                for thread in threads:
                    thread.join(30.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == [MemoryFault] * 8


#: hand-written programs that trap (or not) in interesting ways; the
#: generated programs above are structurally trap-free, so these pin the
#: trap-equivalence half of the contract.  Messages differ across tiers
#: (each reports its own diagnostic) — the outcome and the trap's class
#: must agree.
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
    ("load-below", """
define i64 @f(i64 %i) {
entry:
  %p = alloca [4 x i64]
  %q = getelementptr [4 x i64], [4 x i64]* %p, i64 0, i64 %i
  %r = load i64, i64* %q
  ret i64 %r
}
""", (-1,)),
    ("store-past-end", """
define i64 @f(i64 %i) {
entry:
  %p = alloca [4 x i64]
  %q = getelementptr [4 x i64], [4 x i64]* %p, i64 0, i64 %i
  store i64 1, i64* %q
  ret i64 0
}
""", (4,)),
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
            tier: _run_tier(text, "f", args, tier) for tier in ALL_TIERS
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


@pytest.mark.parametrize("tier", POLICIES)
class TestPolicyTable:
    """Every preset of ``POLICIES`` through the one dispatcher: same
    results as the oracle, promotion on either threshold, a fresh start
    after ``invalidate()``, stable frame labels."""

    @staticmethod
    def _engine(tier, **kwargs):
        module = parse_module(TestStepAccounting.SRC)
        engine = ExecutionEngine(module, tier=tier, **kwargs)
        return engine, module.get_function("f")

    def test_result_matches_interp_across_promotion(self, tier):
        oracle, _ = self._engine("interp")
        engine, _ = self._engine(tier, call_threshold=3)
        results = [engine.run("f", 40) for _ in range(7)]
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
        assert engine.tier_promotions == promotes
        assert hot_events(engine) == [events.PROFILE_CALL_HOT] * promotes
        # one long call trips the backedge counter; promotion is checked
        # at call boundaries, so it is the next call that promotes
        engine, _ = self._engine(tier, call_threshold=10**6,
                                 backedge_threshold=16,
                                 telemetry=Telemetry())
        engine.run("f", 100)
        assert engine.tier_promotions == 0
        engine.run("f", 100)
        assert engine.tier_promotions == promotes
        assert hot_events(engine) == [events.PROFILE_BACKEDGE_HOT] * promotes

    def test_invalidate_yields_a_fresh_box_and_demoted_counters(self, tier):
        engine, func = self._engine(tier, call_threshold=2)
        for _ in range(4):
            engine.run("f", 5)
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

    def test_every_call_charges_the_functions_one_profile(self, tier):
        engine, _ = self._engine(tier, call_threshold=3)
        engine.run("f", 5)
        engine.run("f", 5)
        if POLICIES[tier].promote:
            assert engine.profiler.snapshot() == {"f": {
                "calls": 2, "backedges": 8, "promoted": False}}
        else:
            assert engine.profiler.snapshot() == {}
        assert "tenants" not in engine.stats_snapshot()

    def test_a_rebuilt_dispatcher_charges_the_same_profile(self, tier):
        # the dispatcher binds its profile once; invalidate() demotes
        # that object in place, so the rebuilt dispatcher counts into it
        engine, func = self._engine(tier, call_threshold=100)
        engine.run("f", 5)
        engine.run("f", 5)
        if not POLICIES[tier].promote:
            engine.invalidate(func)
            engine.run("f", 5)
            assert engine.profiler.snapshot() == {}
            return
        profile = engine.profiler.profile_for("f")
        assert profile.calls == 2
        engine.invalidate(func)
        assert engine.profiler.profile_for("f") is profile
        assert (profile.calls, profile.backedges) == (0, 0)
        assert engine.run("f", 5) == 5
        assert (profile.calls, profile.backedges) == (1, 4)

    def test_entry_frame_is_labelled_with_tier_and_function(self, tier):
        engine, func = self._engine(tier)
        thunk = engine.get_compiled(func)
        # JIT code compiles under ``_jit_<fn>``; every other preset's
        # entry is a thunk ``_mark_thunk`` stamped with its label
        label = "_jit" if tier == "jit" else tier
        assert thunk.__code__.co_name == f"{label}_f"
        if tier != "jit":
            assert thunk.__name__ == f"{label}_f"


PROBED = """
declare i64 @probe(i64)

define i64 @g(i64 %x) {
entry:
  %r = call i64 @probe(i64 %x)
  ret i64 %r
}
"""


@pytest.mark.parametrize("tier", ["tiered", "speculative"])
def test_promoted_call_is_dispatcher_frame_then_jit_frame(tier):
    engine = ExecutionEngine(parse_module(PROBED), tier=tier,
                             call_threshold=2)
    stacks = []

    def probe(x):
        # the frames below the outermost ``engine._call`` (the decoded
        # tier reaches a callee through an inner one; ``engine.call``
        # canonicalizes the arguments and enters it)
        names, outermost = [], 0
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is ExecutionEngine._call.__code__:
                outermost = len(names)
            names.append(frame.f_code.co_name)
            frame = frame.f_back
        stacks.append(names[:outermost])
        return x

    engine.add_native("probe", probe)
    for _ in range(8):
        assert engine.run("g", 7) == 7
    label = tier
    # innermost first: before promotion the call runs under the
    # dispatcher; the publication re-pointed ``engine.run`` at the JIT'd
    # code (under ``speculative``, the specialization its feedback stage
    # republished), so after it that code calls the native's host
    # function straight from its slot
    assert stacks[0][-1] == f"{label}_g"
    jitted = "_jit_g_spec" if POLICIES[tier].speculate else "_jit_g"
    assert stacks[-1] == [jitted]
