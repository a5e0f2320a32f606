"""Integration tests: the VM's telemetry hooks.

Covers the event streams real runs produce (well-formedness and
vocabulary), the single-stats-surface invariant (engine counters ==
telemetry counters, incremented exactly once), the invalidate-demotes
regression, the ``stats_snapshot()`` surface, the sinkless (untraced)
path, and the threads that used to be invisible: background compile
workers and VM-server request threads.
"""

import threading
import time

import pytest

from repro.core import HotCounterCondition, insert_resolved_osr_point
from repro.ir import parse_module
from repro.obs import (
    Telemetry,
    events,
    trace,
    validate_chrome_trace,
)
from repro.obs.export import chrome_trace_events
from repro.vm import DecodeError, ExecutionEngine

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


def _tiered(telemetry=None, **kwargs):
    module = parse_module(LOOP)
    engine = ExecutionEngine(module, tier="tiered", telemetry=telemetry,
                             **kwargs)
    return engine, module


class TestEngineStreams:
    def test_tier_up_stream_is_well_formed(self):
        tel = Telemetry()
        engine, _ = _tiered(telemetry=tel, call_threshold=3)
        for _ in range(4):
            assert engine.run("sumto", 5) == 15
        assert events.validate_events(tel.events) == []
        names = [e["name"] for e in tel.events]
        assert events.PROFILE_CALL_HOT in names
        assert events.TIER_PROMOTE in names
        assert events.JIT_COMPILE in names
        assert events.JIT_CACHE_MISS in names
        # the call-hot crossing is observed before the promotion
        assert (names.index(events.PROFILE_CALL_HOT)
                < names.index(events.TIER_PROMOTE))

    def test_backedge_hot_variant(self):
        tel = Telemetry()
        engine, _ = _tiered(telemetry=tel, call_threshold=1000,
                            backedge_threshold=50)
        engine.run("sumto", 200)
        engine.run("sumto", 5)
        names = [e["name"] for e in tel.events]
        assert events.PROFILE_BACKEDGE_HOT in names
        assert events.PROFILE_CALL_HOT not in names

    def test_engine_shares_the_telemetry_registry(self):
        tel = Telemetry()
        engine, _ = _tiered(telemetry=tel, call_threshold=2)
        assert engine.metrics is tel.metrics
        for _ in range(3):
            engine.run("sumto", 5)
        # counters and trace agree: every event counted exactly once
        promote_instants = sum(
            1 for e in tel.events if e["name"] == events.TIER_PROMOTE
        )
        assert promote_instants == 1
        assert tel.metrics.counter(events.TIER_PROMOTE) == 1
        assert engine.tier_promotions == 1  # back-compat property, same cell

    def test_resolved_osr_stream(self):
        tel = Telemetry()
        engine, module = _tiered(telemetry=tel)
        func = module.get_function("sumto")
        loop = func.get_block("loop")
        point = insert_resolved_osr_point(
            func, loop.instructions[loop.first_non_phi_index],
            HotCounterCondition(3), engine=engine,
        )
        assert point.continuation.attributes["osr.entrypoint"] == "resolved"
        assert engine.run("sumto", 50) == sum(range(51))
        assert events.validate_events(tel.events) == []
        names = [e["name"] for e in tel.events]
        for expected in (events.OSR_INSERT, events.OSR_CONTINUATION,
                         events.OSR_COMPENSATION, events.ENGINE_INVALIDATE,
                         events.OSR_FIRE):
            assert expected in names, expected
        # the continuation span nests inside the insertion span (and so
        # completes, and is recorded, first)
        insert, cont = (
            next(e for e in tel.events if e["name"] == name)
            for name in (events.OSR_INSERT, events.OSR_CONTINUATION))
        assert insert["ts"] <= cont["ts"]
        assert cont["ts"] + cont["dur"] <= insert["ts"] + insert["dur"]
        assert (names.index(events.OSR_CONTINUATION)
                < names.index(events.OSR_INSERT))
        fires = [e for e in tel.events if e["name"] == events.OSR_FIRE]
        assert fires[0]["args"]["kind"] == "resolved"
        assert tel.metrics.counter(events.OSR_FIRE) == len(fires) == 1
        assert tel.metrics.timer_stats(events.OSR_INSERT)["count"] == 1

    def test_osr_fire_visible_when_tracing_enabled_after_warmup(self):
        """Regression: the fire probe used to be installed only when
        telemetry was enabled at *compile* time, so enabling tracing
        after the continuation was warm silently dropped every fire.
        The probe is now unconditional and reads ``engine.telemetry``
        per fire."""
        engine, module = _tiered()  # nothing ambient: sinkless
        func = module.get_function("sumto")
        loop = func.get_block("loop")
        insert_resolved_osr_point(
            func, loop.instructions[loop.first_non_phi_index],
            HotCounterCondition(3), engine=engine,
        )
        # warm up with tracing off: the fire happens and is still
        # accounted (metrics counter), just not traced
        assert engine.run("sumto", 50) == sum(range(51))
        assert engine.metrics.counter(events.OSR_FIRE) == 1
        # now enable tracing on the warm engine — no recompile
        tel = Telemetry()
        engine.telemetry = tel
        assert engine.run("sumto", 50) == sum(range(51))
        fires = [e for e in tel.events if e["name"] == events.OSR_FIRE]
        assert len(fires) == 1
        assert fires[0]["args"]["kind"] == "resolved"

    def test_decode_bailout_records_reason(self, monkeypatch):
        from repro.vm import decode

        def boom(func, engine):
            raise DecodeError("synthetic bailout")

        # the engine imports the decoder when the decoded tier is first
        # built, so the module's own binding is the one it calls
        monkeypatch.setattr(decode, "decode_function", boom)
        tel = Telemetry()
        module = parse_module(LOOP)
        engine = ExecutionEngine(module, tier="decoded", telemetry=tel)
        assert engine.run("sumto", 5) == 15  # tree-walker fallback
        bailouts = [e for e in tel.events
                    if e["name"] == events.DECODE_BAILOUT]
        assert len(bailouts) == 1
        assert "synthetic bailout" in bailouts[0]["args"]["reason"]
        assert engine.decode_fallbacks == 1

    def test_chrome_export_of_a_real_run(self):
        tel = Telemetry()
        engine, _ = _tiered(telemetry=tel, call_threshold=2)
        for _ in range(3):
            engine.run("sumto", 5)
        chrome = chrome_trace_events(tel)
        assert validate_chrome_trace(chrome) == []

    def test_ambient_pickup_via_trace(self):
        with trace() as tel:
            engine, _ = _tiered(call_threshold=2)
            assert engine.telemetry is tel
            for _ in range(3):
                engine.run("sumto", 5)
        assert tel.metrics.counter(events.TIER_PROMOTE) == 1
        # outside the block new engines are quiet again
        engine2, _ = _tiered()
        assert not engine2.telemetry.enabled


class TestMcVMStreams:
    SOURCE = """
function y = sq(x)
  y = x * x;
end

function w = accumulate(g, n)
  w = 0.0;
  i = 0.0;
  while i < n
    w = w + feval(g, i);
    i = i + 1.0;
  end
end

function r = main(n)
  r = accumulate(@sq, n);
end
"""

    def test_feval_osr_stream(self):
        from repro.mcvm import McVM

        tel = Telemetry()
        vm = McVM(self.SOURCE, enable_osr=True, telemetry=tel)
        assert vm.telemetry is tel
        vm.run("main", 200)
        assert events.validate_events(tel.events) == []
        names = [e["name"] for e in tel.events]
        assert events.FEVAL_SPECIALIZE in names
        assert events.OSR_FIRE in names
        inserts = [e for e in tel.events if e["name"] == events.OSR_INSERT]
        assert any(e["args"]["kind"] == "feval" for e in inserts)
        fires = [e for e in tel.events if e["name"] == events.OSR_FIRE]
        assert all(e["args"]["kind"] == "open" for e in fires)
        # the second run reuses the cached continuation
        vm.run("main", 200)
        assert tel.metrics.counter(events.FEVAL_CACHE_HIT) >= 1
        assert tel.metrics.counter(events.FEVAL_SPECIALIZE) == 1

    def test_mcosr_insert_traced(self):
        from repro.core.mcosr import insert_mcosr_point

        tel = Telemetry()
        module = parse_module(LOOP)
        engine = ExecutionEngine(module, tier="jit", telemetry=tel)
        func = module.get_function("sumto")
        loop = func.get_block("loop")
        insert_mcosr_point(
            func, loop.instructions[loop.first_non_phi_index],
            HotCounterCondition(10), engine=engine,
        )
        inserts = [e for e in tel.events if e["name"] == events.OSR_INSERT]
        assert len(inserts) == 1
        assert inserts[0]["args"]["kind"] == "mcosr"
        assert events.validate_events(tel.events) == []


class TestInvalidateDemotes:
    def test_invalidate_resets_profile_counters(self):
        """Regression: a rewritten function must re-earn its promotion —
        stale call/backedge counters would instantly re-tier it."""
        engine, module = _tiered(call_threshold=3)
        func = module.get_function("sumto")
        for _ in range(4):
            engine.run("sumto", 5)
        profile = engine.profiler.profile_for("sumto")
        assert profile.promoted
        engine.invalidate(func)
        assert not profile.promoted
        assert profile.calls == 0
        assert profile.backedges == 0
        # one call after the rewrite must NOT re-promote (3 needed)
        assert engine.run("sumto", 5) == 15
        assert engine.tier_promotions == 1

    def test_invalidate_emits_demote_event_only_when_promoted(self):
        tel = Telemetry()
        engine, module = _tiered(telemetry=tel, call_threshold=3)
        func = module.get_function("sumto")
        engine.run("sumto", 5)
        engine.invalidate(func)  # not promoted yet: no demote event
        assert tel.metrics.counter(events.TIER_DEMOTE) == 0
        for _ in range(3):
            engine.run("sumto", 5)
        assert engine.tier_promotions == 1
        engine.invalidate(func)
        assert tel.metrics.counter(events.TIER_DEMOTE) == 1
        assert tel.metrics.counter(events.ENGINE_INVALIDATE) == 2


class TestStatsSurface:
    def test_tier_stats_shim_is_gone(self):
        # deprecated since PR 2, warned since PR 3, removed now:
        # stats_snapshot() is the one stats surface
        engine, _ = _tiered(call_threshold=2)
        assert not hasattr(engine, "tier_stats")

    def test_stats_snapshot_shape(self):
        engine, _ = _tiered(call_threshold=2)
        for _ in range(3):
            engine.run("sumto", 5)
        snapshot = engine.stats_snapshot()
        assert snapshot["counters"][events.TIER_PROMOTE] == 1
        assert snapshot["counters"]["engine.compile"] >= 1
        assert snapshot["profiles"]["sumto"]["promoted"]


SPEC_LOOP = """
define i64 @poly(i64 %mode, i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %loop ]
  %t = mul i64 %i, %mode
  %acc.next = add i64 %acc, %t
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""


def _poly(mode, n):
    return sum(i * mode for i in range(n))


class TestNoopFastPath:
    def test_untraced_engine_owns_a_sinkless_telemetry(self):
        engine, _ = _tiered(call_threshold=2)
        other, _ = _tiered(call_threshold=2)
        tel = engine.telemetry
        assert tel.enabled is False and tel.events == []
        # exactly one telemetry per engine, and one registry
        assert engine.metrics is tel.metrics
        assert other.telemetry is not tel
        for _ in range(3):
            engine.run("sumto", 5)
        assert engine.tier_promotions == 1 and other.tier_promotions == 0
        assert tel.events == []  # counted, nothing recorded

    def test_untraced_engines_still_count(self, tmp_path):
        """``stats_snapshot()["counters"]`` of engines nobody traces:
        every vocabulary name an operation emits still ticks."""
        from repro.serve import VMServer

        # tier-up and a resolved OSR fire, first on a cold disk cache...
        def tiered_run():
            engine, module = _tiered(call_threshold=2,
                                     disk_cache=str(tmp_path / "cache"))
            func = module.get_function("sumto")
            loop = func.get_block("loop")
            insert_resolved_osr_point(
                func, loop.instructions[loop.first_non_phi_index],
                HotCounterCondition(3), engine=engine)
            for _ in range(3):
                assert engine.run("sumto", 50) == sum(range(51))
            assert engine.telemetry.events == []
            return engine.stats_snapshot()["counters"]

        cold = tiered_run()
        assert cold[events.TIER_PROMOTE] >= 1
        assert cold[events.OSR_FIRE] == 3
        assert cold[events.OSR_INSERT] == 1
        assert cold[events.JIT_CACHE_MISS] >= 1
        assert cold[events.DISKCACHE_MISS] >= 1
        assert cold[events.DISKCACHE_WRITE] >= 1
        # ...then on the warm one
        assert tiered_run()[events.DISKCACHE_HIT] >= 1

        # a guard failure and its OSR exit under tier=speculative
        engine = ExecutionEngine(parse_module(SPEC_LOOP), tier="speculative",
                                 call_threshold=3)
        for _ in range(10):
            assert engine.run("poly", 1, 40) == _poly(1, 40)
        assert engine.run("poly", 9, 25) == _poly(9, 25)
        counters = engine.stats_snapshot()["counters"]
        assert counters[events.DEOPT_GUARD_FAIL] == 1
        assert counters[events.DEOPT_EXIT] == 1
        assert counters[events.SPEC_SPECIALIZE] >= 1
        assert engine.telemetry.events == []

        # requests through a server
        with VMServer(parse_module(LOOP), workers=2) as server:
            for _ in range(5):
                assert server.call("sumto", [5], timeout=10) == 15
            counters = server.engine.stats_snapshot()["counters"]
        assert counters[events.SERVE_REQUEST] == 5

    def test_disabled_matches_enabled_but_empty_within_noise(self):
        """Benchmark-style guard for the ~one-attribute-check claim.

        Steady-state tiered execution (post-promotion) has no hook in
        the hot loop, so a disabled-telemetry run and an enabled-but-
        quiet run must be indistinguishable up to timer noise.  The
        bound is deliberately loose (2x) — this catches accidentally
        putting emission on the hot path, not micro-regressions.
        """
        def timed(telemetry):
            module = parse_module(LOOP)
            engine = ExecutionEngine(module, tier="tiered",
                                     call_threshold=2, telemetry=telemetry)
            for _ in range(3):
                engine.run("sumto", 100)  # promote, then steady state
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(20):
                    engine.run("sumto", 400)
                best = min(best, time.perf_counter() - start)
            return best

        disabled = timed(None)              # the engine's sinkless one
        enabled = timed(Telemetry())        # live but quiet post-promotion
        assert disabled < enabled * 2.0 + 1e-3
        assert enabled < disabled * 2.0 + 1e-3


class TestEveryThread:
    """Spans from threads other than the main one: the single span
    stack used to keep workers out of traces (bare timers) and made
    overlapping request threads raise out of their ``with`` blocks."""

    def test_background_worker_compile_is_in_the_trace(self):
        with trace() as tel:
            module = parse_module(LOOP)
            engine = ExecutionEngine(module, tier="tiered-bg",
                                     call_threshold=2)
            try:
                for _ in range(3):
                    assert engine.run("sumto", 5) == 15
                assert engine.drain_background(timeout=30)
            finally:
                engine.shutdown_background()
        assert engine.tier_promotions == 1
        builds = [e for e in tel.events
                  if e["name"] == events.CODEGEN_BUILD]
        assert len(builds) == 1
        (build,) = builds
        assert build["ph"] == "X" and build["dur"] >= 0
        assert build["args"]["function"] == "sumto"
        assert build["tid"] != threading.get_ident()
        # the worker's instants carry the same thread id
        start = next(e for e in tel.events
                     if e["name"] == events.COMPILE_START)
        assert start["tid"] == build["tid"]
        assert events.validate_events(tel.events) == []
        assert validate_chrome_trace(chrome_trace_events(tel)) == []

    def test_worker_build_lands_in_the_owning_engines_flight_ring(self):
        # the build span goes to the telemetry of the engine that asked
        # for the code, not the ambient one a worker thread would see
        engine = ExecutionEngine(parse_module(LOOP), tier="tiered-bg",
                                 call_threshold=2, flight=True)
        try:
            for _ in range(3):
                assert engine.run("sumto", 5) == 15
            assert engine.drain_background(timeout=30)
        finally:
            engine.shutdown_background()
        assert engine.tier_promotions == 1
        ring = engine.telemetry.flight.events
        (build,) = [e for e in ring if e["name"] == events.CODEGEN_BUILD]
        assert build["args"]["function"] == "sumto"
        assert build["tid"] != threading.get_ident()
        start = next(e for e in ring if e["name"] == events.COMPILE_START)
        assert start["tid"] == build["tid"]

    def test_concurrent_misses_on_a_flight_server(self):
        from repro.serve import VMServer

        workers = 4
        engine = ExecutionEngine(parse_module(SPEC_LOOP), tier="speculative",
                                 call_threshold=3, flight=True)
        for _ in range(10):
            assert engine.run("poly", 1, 40) == _poly(1, 40)
        manager = engine.spec_manager
        assert manager.state_for(
            engine.module.get_function("poly")).active_version is not None

        # hold every request thread inside the miss policy until all of
        # them are there, so the misses truly overlap
        real_on_miss = manager._on_miss
        barrier = threading.Barrier(workers)

        def on_miss_in_step(*args):
            barrier.wait(10)
            return real_on_miss(*args)

        manager._on_miss = on_miss_in_step
        with VMServer(engine=engine, workers=workers,
                      batch_max=1) as server:
            # each request misses the entry check with a distinct value
            pending = [server.submit("poly", [mode, 25])
                       for mode in range(2, 2 + workers)]
            results = [p.result(30) for p in pending]
        assert results == [_poly(mode, 25) for mode in range(2, 2 + workers)]

        ring = engine.telemetry.flight.events
        assert events.validate_events(ring) == []
        assert validate_chrome_trace(chrome_trace_events(
            engine.telemetry)) == []
        for name in (events.DEOPT_GUARD_FAIL, events.DEOPT_EXIT):
            fired = [e for e in ring if e["name"] == name]
            assert len(fired) == workers
            tids = {e["tid"] for e in fired}
            assert threading.get_ident() not in tids
            assert len(tids) == workers
        served = [e for e in ring if e["name"] == events.SERVE_REQUEST]
        assert len(served) == workers and all(e["args"]["ok"]
                                              for e in served)


class TestTraceSmoke:
    def test_trace_smoke_scenario(self, tmp_path):
        """The ``make trace-smoke`` path: traced shootout run, schema-
        valid Chrome export, and the acceptance events present."""
        from repro.obs.smoke import REQUIRED_EVENTS, run_trace_smoke
        from repro.shootout import SUITE, compile_benchmark
        from repro.vm import ExecutionEngine as Engine

        out = tmp_path / "trace.json"
        result = run_trace_smoke(out=str(out))
        assert result.problems == []
        assert result.missing == []
        assert result.ok
        assert out.exists()
        assert set(REQUIRED_EVENTS) == {
            "tier.promote", "jit.compile", "osr.fire"
        }
        # the traced run computed the same checksum as an untraced one
        benchmark = SUITE["n-body"]
        module = compile_benchmark(benchmark, "unoptimized")
        engine = Engine(module, tier="tiered", call_threshold=4)
        untraced = engine.run(benchmark.entry, *benchmark.args)
        assert result.checksum == pytest.approx(untraced)
