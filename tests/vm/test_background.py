"""Background compilation pipeline: queue mechanics, the publish/discard
protocol, the invalidation sweep, and thunk identity propagation.

The deterministic races here are staged by monkeypatching
``repro.vm.background.acquire_artifact`` with a gated wrapper, so the
worker can be held mid-compile while the test mutates engine state on
the main thread.
"""

import threading
import time

import pytest

from repro.ir import parse_module, types as T
from repro.ir.values import ConstantInt
from repro.obs import Telemetry, events
from repro.vm import (
    POLICIES,
    TIERS,
    CompileQueue,
    ExecutionEngine,
    FunctionProfile,
    JITError,
    PublishBox,
)
from repro.vm import background as bg
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


def _engine(src=LOOP, tier="tiered-bg", **kwargs):
    module = parse_module(src)
    engine = ExecutionEngine(module, tier=tier, **kwargs)
    return engine, module


def _profile(name, calls):
    """A tripping profile for direct queue submits; the job's priority
    is its hotness, which grows with ``calls``."""
    profile = FunctionProfile(name)
    profile.calls = calls
    return profile


class _GatedCodegen:
    """Wrap codegen so the worker blocks until the test releases it."""

    def __init__(self, monkeypatch, block=()):
        self.block = set(block)
        self.release = threading.Event()
        self.entered = threading.Event()
        self.order = []
        self._real = bg.acquire_artifact
        monkeypatch.setattr(bg, "acquire_artifact", self)

    def __call__(self, func, engine):
        self.order.append(func.name)
        if func.name in self.block:
            self.entered.set()
            assert self.release.wait(5.0), "gate never released"
        return self._real(func, engine)


class TestBackgroundPromotion:
    def test_promotes_off_thread_and_installs(self):
        engine, _ = _engine(call_threshold=3)
        for _ in range(5):
            assert engine.run("sumto", 10) == 55
        assert engine.drain_background(5.0)
        assert engine.run("sumto", 10) == 55
        stats = engine.stats_snapshot()["background"]
        assert stats["installed"] == 1
        assert stats["discarded"] == 0
        assert engine.profiler.profile_for("sumto").promoted
        engine.shutdown_background()

    def test_promotion_stamps_the_tripping_tenants_profile(self):
        # the publish runs on a worker thread with no tenant scope: it
        # must stamp the profile that tripped, not look one up there
        snapshots = {}
        for tier in ("tiered", "tiered-bg"):
            tel = Telemetry()
            engine, _ = _engine(tier=tier, call_threshold=2, telemetry=tel)
            with engine.profiler.tenant_scope("alice"):
                for _ in range(5):
                    assert engine.run("sumto", 10) == 55
                    assert engine.drain_background(5.0)
            engine.shutdown_background()
            promotes = [e["args"]["calls"] for e in tel.events
                        if e["name"] == events.TIER_PROMOTE]
            tenants = engine.profiler.tenant_snapshot()
            # the tripping call itself runs decoded under tiered-bg and
            # compiled under tiered, so backedge counts differ by design
            del tenants["alice"]["sumto"]["backedges"]
            snapshots[tier] = (tenants, engine.profiler.snapshot(), promotes)
        assert snapshots["tiered"] == (
            {"alice": {"sumto": {"calls": 2, "promoted": True}}},
            {},  # no phantom profile in the default scope
            [2],
        )
        assert snapshots["tiered-bg"] == snapshots["tiered"]

    def test_hot_call_does_not_block_on_compile(self, monkeypatch):
        gate = _GatedCodegen(monkeypatch, block={"sumto"})
        engine, _ = _engine(call_threshold=2)
        # these calls trip the threshold while the worker is held inside
        # codegen; every one must come back via the decoded tier
        for _ in range(6):
            assert engine.run("sumto", 10) == 55
        assert gate.entered.wait(5.0)
        assert not engine.drain_background(0.05)  # still compiling
        gate.release.set()
        assert engine.drain_background(5.0)
        assert engine.run("sumto", 10) == 55
        assert engine.stats_snapshot()["background"]["installed"] == 1
        engine.shutdown_background()

    def test_resubmission_is_deduplicated(self, monkeypatch):
        gate = _GatedCodegen(monkeypatch, block={"sumto"})
        engine, _ = _engine(call_threshold=2)
        for _ in range(10):
            engine.run("sumto", 10)
        gate.release.set()
        assert engine.drain_background(5.0)
        queue = engine.background_queue
        assert queue.submitted == 1
        assert queue.installed == 1
        engine.shutdown_background()

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
        assert engine.drain_background(5.0)
        # the box latched the request: one promotion attempt, no retry
        box = engine._boxes["sumto"]
        assert box.requested and box.value is None
        names = [e["name"] for e in tel.events]
        assert names.count(events.PROFILE_CALL_HOT) == 1
        assert names.count(events.COMPILE_START) == 1
        reasons = [e["args"]["reason"] for e in tel.events
                   if e["name"] == events.COMPILE_DISCARD]
        assert len(reasons) == 1 and reasons[0].startswith("jit-error:")
        assert not engine.profiler.profile_for("sumto").promoted
        queue = engine.background_queue
        if queue is not None:
            assert (queue.submitted, queue.failed, queue.installed) == (1, 1, 0)
        engine.shutdown_background()

    def test_priority_pops_hottest_first(self, monkeypatch):
        src = LOOP + """
define i64 @cold(i64 %x) {
entry:
  ret i64 %x
}

define i64 @hot(i64 %x) {
entry:
  %r = add i64 %x, 2
  ret i64 %r
}
"""
        gate = _GatedCodegen(monkeypatch, block={"sumto"})
        engine, module = _engine(src)
        queue = engine._ensure_bg_queue()
        blocker = module.get_function("sumto")
        queue.submit(engine, blocker, PublishBox(0), _profile("sumto", 1))
        assert gate.entered.wait(5.0)  # worker busy; next two stay queued
        queue.submit(engine, module.get_function("cold"),
                     PublishBox(0), _profile("cold", 5))
        queue.submit(engine, module.get_function("hot"),
                     PublishBox(0), _profile("hot", 500))
        gate.release.set()
        assert queue.drain(5.0)
        assert gate.order == ["sumto", "hot", "cold"]
        queue.shutdown()

    def test_shared_queue_serves_multiple_engines(self):
        queue = CompileQueue(name="shared")
        engine_a, _ = _engine(call_threshold=2, compile_queue=queue)
        engine_b, _ = _engine(call_threshold=2, compile_queue=queue)
        for _ in range(4):
            assert engine_a.run("sumto", 10) == 55
            assert engine_b.run("sumto", 20) == 210
        assert queue.drain(5.0)
        assert queue.installed == 2
        assert engine_a.run("sumto", 10) == 55
        assert engine_b.run("sumto", 20) == 210
        queue.shutdown()

    def test_queue_telemetry_stream(self):
        tel = Telemetry()
        engine, _ = _engine(call_threshold=2, telemetry=tel)
        for _ in range(4):
            engine.run("sumto", 10)
        assert engine.drain_background(5.0)
        engine.run("sumto", 10)
        names = [e["name"] for e in tel.events]
        assert events.COMPILE_QUEUE in names
        assert events.COMPILE_START in names
        assert events.COMPILE_INSTALL in names
        assert events.validate_events(tel.events) == []
        assert engine.metrics.timer_stats(events.COMPILE_LATENCY)["count"] == 1
        assert (engine.metrics.gauge_value(events.COMPILE_QUEUE_DEPTH)
                is not None)
        engine.shutdown_background()


class TestPublishDiscard:
    def test_invalidate_during_compile_discards_stale_code(
            self, monkeypatch):
        """The tentpole race: invalidate() lands while the worker is
        mid-compile.  The generation stamp must win — the in-flight
        result is discarded, never installed."""
        gate = _GatedCodegen(monkeypatch, block={"sumto"})
        engine, module = _engine(call_threshold=2)
        func = module.get_function("sumto")
        for _ in range(4):
            assert engine.run("sumto", 10) == 55
        assert gate.entered.wait(5.0)
        engine.invalidate(func)  # bumps the generation mid-compile
        gate.release.set()
        assert engine.drain_background(5.0)
        queue = engine.background_queue
        assert queue.installed == 0
        assert queue.discarded == 1
        assert not engine.profiler.profile_for("sumto").promoted
        assert engine.run("sumto", 10) == 55
        engine.shutdown_background()

    def test_invalidate_before_pop_cancels_job(self, monkeypatch):
        # hold the worker on a decoy so the real job is still queued when
        # the invalidation lands
        src = LOOP + """
define i64 @decoy(i64 %x) {
entry:
  ret i64 %x
}
"""
        gate = _GatedCodegen(monkeypatch, block={"decoy"})
        engine, module = _engine(src, call_threshold=2)
        queue = engine._ensure_bg_queue()
        queue.submit(engine, module.get_function("decoy"),
                     PublishBox(0), _profile("decoy", 10**9))
        assert gate.entered.wait(5.0)
        for _ in range(4):
            engine.run("sumto", 10)
        assert queue.depth == 1
        engine.invalidate(module.get_function("sumto"))
        gate.release.set()
        assert queue.drain(5.0)
        assert queue.discarded >= 1
        assert "sumto" not in gate.order  # cancelled before codegen ran
        engine.shutdown_background()

    def test_generation_stamp_blocks_stale_publish(self):
        engine, module = _engine()
        func = module.get_function("sumto")
        from repro.vm import codegen_function
        from repro.vm.background import CompileJob

        artifact = codegen_function(func)
        profile = engine.profiler.profile_for(func.name)
        stale = CompileJob(engine, func, PublishBox(generation=0), profile)
        engine.invalidate(func)  # generation is now 1
        fresh_artifact = codegen_function(func)
        assert engine._publish(stale, fresh_artifact) is False
        live = CompileJob(engine, func,
                          PublishBox(engine.compile_generation(func.name)),
                          profile)
        assert engine._publish(live, fresh_artifact) is True
        assert live.box.value is not None
        assert profile.promoted
        # a box publishes at most once
        assert engine._publish(live, fresh_artifact) is False

    def test_drain_without_queue_is_trivially_idle(self):
        engine, _ = _engine(tier="tiered")
        assert engine.drain_background(0.0)
        assert engine.background_queue is None
        engine.shutdown_background()  # no-op


class TestInvalidationSweep:
    """Satellite: invalidate() must sweep *every* per-function cache so
    the rewritten body executes in every tier."""

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
        engine.drain_background(5.0)
        func.entry.terminator.set_operand(0, ConstantInt(T.i64, 2))
        engine.invalidate(func)
        assert engine.run("f") == 2
        # and again after re-warming (post-invalidate promotion path)
        for _ in range(4):
            assert engine.run("f") == 2
        engine.drain_background(5.0)
        assert engine.run("f") == 2
        engine.shutdown_background()

    def test_trampoline_patched_callers_are_repaired(self):
        """Callers whose namespaces were direct-patched by the lazy
        trampoline must re-resolve after invalidate() — previously they
        kept calling the dropped compiled body forever."""
        engine, module = _engine(CALLS, tier="jit")
        leaf = module.get_function("leaf")
        # two calls: the first compiles through the trampoline, the
        # second goes through the patched (direct) slot
        assert engine.run("top", 10) == 12
        assert engine.run("top", 10) == 12
        assert engine._patched.get("leaf")
        add = leaf.entry.instructions[0]
        add.set_operand(1, ConstantInt(T.i64, 100))
        engine.invalidate(leaf)
        assert engine.run("top", 10) == 111
        assert engine.run("top", 10) == 111

    def test_decoded_cache_is_swept_and_version_checked(self):
        engine, module = _engine(tier="decoded")
        func = module.get_function("sumto")
        assert engine.run("sumto", 10) == 55
        assert "sumto" in engine._decoded
        cached = engine._decoded["sumto"]
        # re-deriving the thunk reuses the cached decode
        engine._compiled.pop("sumto")
        engine.run("sumto", 10)
        assert engine._decoded["sumto"] is cached
        engine.invalidate(func)
        assert "sumto" not in engine._decoded


class TestThunkIdentity:
    """Satellite: every engine thunk carries __qualname__ /
    __ir_function__ (and __wrapped__ where it fronts another callable)."""

    @pytest.mark.parametrize("tier,prefix", [
        ("interp", "interp"),
        ("decoded", "decoded"),
        ("tiered", "tiered"),
        ("tiered-bg", "tieredbg"),
        ("speculative", "speculative"),
    ])
    def test_thunk_naming(self, tier, prefix):
        engine, module = _engine(tier=tier)
        thunk = engine.get_compiled(module.get_function("sumto"))
        assert thunk.__name__ == f"{prefix}_sumto"
        assert thunk.__qualname__ == f"{prefix}_sumto"
        assert thunk.__ir_function__ == "sumto"
        engine.shutdown_background()

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
        invalidate() and background tier-up across threads, with zero
        divergence and zero stale-code installs."""
        engine, module = _engine(call_threshold=2,
                                 backedge_threshold=8)
        func = module.get_function("sumto")
        expected = sum(range(13))  # sumto(12)
        failures = []

        def caller():
            for _ in range(3):
                try:
                    result = engine.run("sumto", 12)
                except Exception as error:  # pragma: no cover
                    failures.append(repr(error))
                    return
                if result != expected:
                    failures.append(f"divergence: {result}")

        for round_no in range(200):
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for thread in threads:
                thread.start()
            if round_no % 3 == 0:
                engine.invalidate(func)
            for thread in threads:
                thread.join(10.0)
            assert not failures, failures[:5]
        assert engine.drain_background(10.0)
        assert engine.run("sumto", 12) == expected
        queue = engine.background_queue
        if queue is not None:
            stats = queue.stats()
            # conservation: every submitted job resolved one way
            assert (stats["submitted"]
                    == stats["installed"] + stats["discarded"]
                    + stats["failed"] + stats["depth"] + stats["inflight"])
            engine.shutdown_background()

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
        engine = ExecutionEngine(module, tier="tiered-bg",
                                 call_threshold=2)
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
            assert engine.drain_background(10.0)
            assert engine.run("f", 0) == constant
        engine.shutdown_background()
