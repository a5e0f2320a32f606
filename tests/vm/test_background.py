"""Tier-up on the calling thread: the publish/discard protocol under a
racing ``invalidate()``, the invalidation sweep, and thunk identity
propagation.

A promotion compiles on the thread whose call trips the threshold.  The
deterministic races here are staged by monkeypatching
``repro.vm.jit.codegen_function`` with a gated wrapper, so a caller
thread can be held mid-compile while the test mutates engine state on
the main thread.
"""

import sys
import threading

import pytest

from repro.ir import parse_module, types as T
from repro.ir.values import ConstantInt
from repro.obs import Telemetry, events
from repro.vm import POLICIES, TIERS, ExecutionEngine, JITError, PublishBox
from repro.vm import jit

LOOP = """
define i64 @sumto(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc1, %loop ]
  %acc1 = add i64 %acc, %i
  %i1 = add i64 %i, 1
  %c = icmp sle i64 %i1, %n
  br i1 %c, label %loop, label %out
out:
  ret i64 %acc1
}
"""

CALLS = """
define i64 @leaf(i64 %x) {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}

define i64 @top(i64 %x) {
entry:
  %r = call i64 @leaf(i64 %x)
  %r2 = add i64 %r, 1
  ret i64 %r2
}
"""


def _engine(src=LOOP, tier="tiered", **kwargs):
    module = parse_module(src)
    engine = ExecutionEngine(module, tier=tier, **kwargs)
    return engine, module


def _names(telemetry):
    return [e["name"] for e in telemetry.events]


class _GatedCodegen:
    """Wrap codegen so the compiling thread blocks until the test
    releases it."""

    def __init__(self, monkeypatch, block=()):
        self.block = set(block)
        self.release = threading.Event()
        self.entered = threading.Event()
        self.order = []
        self._real = jit.codegen_function
        monkeypatch.setattr(jit, "codegen_function", self)

    def __call__(self, func, telemetry=None):
        self.order.append(func.name)
        if func.name in self.block:
            self.entered.set()
            assert self.release.wait(5.0), "gate never released"
        return self._real(func, telemetry)


class _Caller(threading.Thread):
    """A caller thread running ``engine.run(name, *args)`` ``times``
    times, keeping the results (or the error)."""

    def __init__(self, engine, name, args, times=1):
        super().__init__()
        self.call = (engine, name, args, times)
        self.results = []
        self.error = None

    def run(self):
        engine, name, args, times = self.call
        try:
            for _ in range(times):
                self.results.append(engine.run(name, *args))
        except Exception as error:  # pragma: no cover - reported below
            self.error = error


class TestPromotion:
    def test_promotes_on_the_calling_thread(self):
        tel = Telemetry()
        engine, _ = _engine(call_threshold=3, telemetry=tel)
        for _ in range(5):
            assert engine.run("sumto", 10) == 55
        assert engine.profiler.profile_for("sumto").promoted
        names = _names(tel)
        assert names.count(events.COMPILE_INSTALL) == 1
        assert events.COMPILE_DISCARD not in names
        # the whole promotion is the tripping call's: one thread, and
        # the stream is ordered start -> codegen -> publish -> install
        promotion = [e for e in tel.events if e["name"] in (
            events.COMPILE_START, events.JIT_COMPILE, events.TIER_PROMOTE,
            events.COMPILE_INSTALL)]
        assert [e["name"] for e in promotion] == [
            events.COMPILE_START, events.JIT_COMPILE, events.TIER_PROMOTE,
            events.COMPILE_INSTALL]
        assert {e["tid"] for e in tel.events} == {threading.get_ident()}
        assert events.validate_events(tel.events) == []
        assert "background" not in engine.stats_snapshot()

    def test_promotion_stamps_the_tripping_profile(self):
        tel = Telemetry()
        engine, _ = _engine(call_threshold=2, telemetry=tel)
        for _ in range(5):
            assert engine.run("sumto", 10) == 55
        promotes = [e["args"]["calls"] for e in tel.events
                    if e["name"] == events.TIER_PROMOTE]
        profiles = engine.profiler.snapshot()
        # the first call ran decoded and counted its back edges; the
        # tripping call and those after it run the published code
        assert profiles == {
            "sumto": {"calls": 2, "backedges": 10, "promoted": True}}
        assert promotes == [2]

    def test_other_callers_run_the_baseline_while_one_compiles(
            self, monkeypatch):
        gate = _GatedCodegen(monkeypatch, block={"sumto"})
        tel = Telemetry()
        engine, _ = _engine(call_threshold=2, telemetry=tel)
        assert engine.run("sumto", 10) == 55
        # the tripping call compiles on its own thread, held in codegen
        tripping = _Caller(engine, "sumto", (10,))
        tripping.start()
        assert gate.entered.wait(5.0)
        # the box latched the request: other callers neither wait for
        # the compile nor start a second one, they run decoded
        for _ in range(6):
            assert engine.run("sumto", 10) == 55
        assert not engine.profiler.profile_for("sumto").promoted
        gate.release.set()
        tripping.join(5.0)
        assert tripping.error is None and tripping.results == [55]
        assert engine.profiler.profile_for("sumto").promoted
        assert engine.run("sumto", 10) == 55
        names = _names(tel)
        assert names.count(events.COMPILE_START) == 1
        assert names.count(events.COMPILE_INSTALL) == 1
        assert gate.order == ["sumto"]

    @pytest.mark.parametrize(
        "tier", [tier for tier, policy in POLICIES.items() if policy.promote])
    def test_jit_failure_latches_decoded(self, tier, monkeypatch):
        def broken(func, telemetry=None):
            raise JITError("no lowering today")

        monkeypatch.setattr(jit, "codegen_function", broken)
        tel = Telemetry()
        engine, _ = _engine(tier=tier, call_threshold=2, telemetry=tel)
        # every call comes back via the decoded tier, the JITError never
        # reaches the caller
        for _ in range(8):
            assert engine.run("sumto", 10) == 55
        # the box latched the request: one promotion attempt, no retry
        box = engine._boxes["sumto"]
        assert box.requested and box.value is None
        names = _names(tel)
        assert names.count(events.PROFILE_CALL_HOT) == 1
        assert names.count(events.COMPILE_START) == 1
        assert events.COMPILE_INSTALL not in names
        reasons = [e["args"]["reason"] for e in tel.events
                   if e["name"] == events.COMPILE_DISCARD]
        assert len(reasons) == 1 and reasons[0].startswith("jit-error:")
        assert not engine.profiler.profile_for("sumto").promoted


class TestPublishDiscard:
    def test_invalidate_during_compile_discards_stale_code(
            self, monkeypatch):
        """The race the publication protocol exists for: invalidate()
        lands from another thread while a caller is mid-compile.  The
        generation stamp must win — the in-flight result is discarded,
        never installed, and the tripping call still returns through
        the baseline tier."""
        gate = _GatedCodegen(monkeypatch, block={"sumto"})
        tel = Telemetry()
        engine, module = _engine(call_threshold=2, telemetry=tel)
        func = module.get_function("sumto")
        caller = _Caller(engine, "sumto", (10,), times=2)
        caller.start()
        assert gate.entered.wait(5.0)
        engine.invalidate(func)  # bumps the generation mid-compile
        gate.release.set()
        caller.join(5.0)
        assert caller.error is None and caller.results == [55, 55]
        names = _names(tel)
        assert events.COMPILE_INSTALL not in names
        assert events.TIER_PROMOTE not in names
        reasons = [e["args"]["reason"] for e in tel.events
                   if e["name"] == events.COMPILE_DISCARD]
        assert reasons == ["stale-generation"]
        assert not engine.profiler.profile_for("sumto").promoted
        assert "sumto" not in engine._boxes
        assert engine.run("sumto", 10) == 55

    def test_stale_dispatcher_discards_without_compiling(self, monkeypatch):
        # a caller holding the dispatcher from before an invalidate()
        # trips its threshold afterwards: the promotion sees the stale
        # generation and gives up before code generation runs
        gate = _GatedCodegen(monkeypatch)
        tel = Telemetry()
        engine, module = _engine(call_threshold=2, telemetry=tel)
        func = module.get_function("sumto")
        stale = engine.get_compiled(func)
        engine.invalidate(func)
        for _ in range(3):
            assert stale(10) == 55
        assert gate.order == []
        names = _names(tel)
        assert events.COMPILE_START not in names
        reasons = [e["args"]["reason"] for e in tel.events
                   if e["name"] == events.COMPILE_DISCARD]
        assert reasons == ["stale-generation"]
        assert not engine.profiler.profile_for("sumto").promoted

    def test_generation_stamp_blocks_stale_publish(self):
        engine, module = _engine()
        func = module.get_function("sumto")
        from repro.vm import codegen_function

        profile = engine.profiler.profile_for(func.name)
        stale = PublishBox(generation=0)
        engine.invalidate(func)  # generation is now 1
        fresh_artifact = codegen_function(func)
        assert engine._publish(func, stale, profile, fresh_artifact) is False
        assert stale.value is None
        live = PublishBox(engine.compile_generation(func.name))
        assert engine._publish(func, live, profile, fresh_artifact) is True
        assert live.value is not None
        assert profile.promoted
        # a box publishes at most once
        assert engine._publish(func, live, profile, fresh_artifact) is False


class TestInvalidationSweep:
    """invalidate() must sweep *every* per-function cache so the
    rewritten body executes in every tier."""

    @pytest.mark.parametrize("tier", TIERS)
    def test_rewrite_invalidate_rerun_every_tier(self, tier):
        src = """
define i64 @f() {
entry:
  ret i64 1
}
"""
        module = parse_module(src)
        engine = ExecutionEngine(module, tier=tier, call_threshold=2)
        func = module.get_function("f")
        # warm up far enough to promote where the tier promotes
        for _ in range(4):
            assert engine.run("f") == 1
        func.entry.terminator.set_operand(0, ConstantInt(T.i64, 2))
        engine.invalidate(func)
        assert engine.run("f") == 2
        # and again after re-warming (post-invalidate promotion path)
        for _ in range(4):
            assert engine.run("f") == 2
        assert engine.run("f") == 2

    @pytest.mark.parametrize("tier", ["jit", "tiered"])
    def test_trampoline_patched_callers_are_repaired(self, tier):
        """Callers whose namespaces were direct-patched by the lazy
        trampoline (or re-pointed by a publication) must re-resolve after
        invalidate() — previously they kept calling the dropped compiled
        body forever."""
        engine, module = _engine(CALLS, tier=tier, call_threshold=2)
        leaf = module.get_function("leaf")
        # enough calls to compile through the trampoline, go through the
        # patched (direct) slot and, under ``tiered``, promote both
        for _ in range(4):
            assert engine.run("top", 10) == 12
        assert engine._patched.get("leaf")
        add = leaf.entry.instructions[0]
        add.set_operand(1, ConstantInt(T.i64, 100))
        engine.invalidate(leaf)
        for _ in range(4):
            assert engine.run("top", 10) == 111

    def test_invalidate_sweeps_the_decoded_record(self):
        engine, module = _engine(tier="decoded")
        func = module.get_function("sumto")
        assert engine.run("sumto", 10) == 55
        assert "sumto" in engine.stats_snapshot()["frames"]
        engine.invalidate(func)
        assert "sumto" not in engine._decoded
        assert "sumto" not in engine.stats_snapshot()["fusion"]
        # the next install decodes the current body afresh
        assert engine.run("sumto", 10) == 55
        assert engine._decoded["sumto"].version == func.code_version


class TestThunkIdentity:
    """Every engine thunk carries __qualname__ / __ir_function__ (and
    __wrapped__ where it fronts another callable)."""

    @pytest.mark.parametrize("tier,prefix", [
        ("interp", "interp"),
        ("decoded", "decoded"),
        ("tiered", "tiered"),
        ("speculative", "speculative"),
    ])
    def test_thunk_naming(self, tier, prefix):
        engine, module = _engine(tier=tier)
        thunk = engine.get_compiled(module.get_function("sumto"))
        assert thunk.__name__ == f"{prefix}_sumto"
        assert thunk.__qualname__ == f"{prefix}_sumto"
        assert thunk.__ir_function__ == "sumto"

    def test_decoded_fast_path_exposes_wrapped(self):
        engine, module = _engine(tier="decoded")
        thunk = engine.get_compiled(module.get_function("sumto"))
        assert hasattr(thunk, "__wrapped__")

    def test_trampoline_naming(self):
        engine, module = _engine(CALLS, tier="jit")
        tramp = engine.lazy_trampoline(module.get_function("leaf"), {}, "s")
        assert tramp.__qualname__ == "trampoline_leaf"
        assert tramp.__ir_function__ == "leaf"


class TestThreadedStress:
    def test_200_rounds_of_concurrent_calls_and_invalidation(self):
        """Acceptance floor: 200+ iterations interleaving calls,
        invalidate() and promotions on the callers' threads, with zero
        divergence and zero stale-code installs."""
        tel = Telemetry()
        engine, module = _engine(call_threshold=2, backedge_threshold=8,
                                 telemetry=tel)
        func = module.get_function("sumto")
        expected = sum(range(13))  # sumto(12)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_no in range(200):
                callers = [_Caller(engine, "sumto", (12,), times=3)
                           for _ in range(4)]
                for caller in callers:
                    caller.start()
                if round_no % 3 == 0:
                    engine.invalidate(func)
                for caller in callers:
                    caller.join(10.0)
                for caller in callers:
                    assert caller.error is None, repr(caller.error)
                    assert caller.results == [expected] * 3
        finally:
            sys.setswitchinterval(interval)
        assert engine.run("sumto", 12) == expected
        # conservation: every promotion attempt (one hot event each)
        # resolved as exactly one install or one discard
        names = _names(tel)
        hot = (names.count(events.PROFILE_CALL_HOT)
               + names.count(events.PROFILE_BACKEDGE_HOT))
        assert hot == (names.count(events.COMPILE_INSTALL)
                       + names.count(events.COMPILE_DISCARD))
        assert names.count(events.COMPILE_INSTALL) >= 1
        # no stale install: a publication (``tier.promote``, emitted
        # under the engine lock like ``engine.invalidate``) happened in
        # the generation its install reports
        invalidations = 0
        published = {}
        for event in tel.events:
            if event["name"] == events.ENGINE_INVALIDATE:
                invalidations += 1
            elif event["name"] == events.TIER_PROMOTE:
                published[event["tid"]] = invalidations
            elif event["name"] == events.COMPILE_INSTALL:
                generation = published.pop(event["tid"])
                assert event["args"]["generation"] == generation
        profile = engine.profiler.profile_for("sumto")
        assert profile.promoted_version in (None, func.code_version)

    def test_stale_install_never_survives_rewrite(self):
        """Rewrite + invalidate under concurrent load: after the dust
        settles the *new* body must execute, in every round."""
        src = """
define i64 @f(i64 %x) {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}
"""
        module = parse_module(src)
        engine = ExecutionEngine(module, tier="tiered", call_threshold=2)
        func = module.get_function("f")
        add = func.entry.instructions[0]
        for constant in range(2, 30):
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    engine.run("f", 0)

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                add.set_operand(1, ConstantInt(T.i64, constant))
                engine.invalidate(func)
            finally:
                stop.set()
                thread.join(10.0)
            assert engine.run("f", 0) == constant
