"""The deopt manager and speculation policy: OSR-exit, dispatch,
respecialization, thrash pinning, forced failures, invalidation."""

import pytest

from repro.analysis import AnalysisManager
from repro.ir import Module, parse_function
from repro.obs import events as EV
from repro.obs import trace
from repro.obs.events import validate_events
from repro.obs.telemetry import Telemetry
from repro.spec import DeoptError
from repro.vm import ExecutionEngine

POLY = """
define i64 @poly(i64 %mode, i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %latch ]
  %is_mode1 = icmp eq i64 %mode, 1
  br i1 %is_mode1, label %fast, label %slow
fast:
  %f = add i64 %acc, %i
  br label %latch
slow:
  %t = mul i64 %i, %mode
  %s = add i64 %acc, %t
  br label %latch
latch:
  %acc.next = phi i64 [ %f, %fast ], [ %s, %slow ]
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""


def _expected(mode, n):
    return sum(i if mode == 1 else i * mode for i in range(n))


def _engine(telemetry=None, **kwargs):
    module = Module()
    func = parse_function(POLY, module)
    kwargs.setdefault("call_threshold", 3)
    engine = ExecutionEngine(module, tier="speculative",
                             telemetry=telemetry, **kwargs)
    return engine, func


def _warm(engine, mode=1, n=40, calls=10):
    for _ in range(calls):
        assert engine.run("poly", mode, n) == _expected(mode, n)


class TestSpeculativeTier:
    def test_specialization_activates_on_monomorphic_feedback(self):
        engine, func = _engine()
        _warm(engine)
        state = engine.spec_manager.state_for(func)
        assert state.active_version is not None
        assert state.active_version.value == 1

    def test_polymorphic_feedback_never_specializes(self):
        engine, func = _engine()
        # both argument slots vary, so no slot is monomorphic
        for mode in (1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6):
            n = 20 + mode
            assert engine.run("poly", mode, n) == _expected(mode, n)
        assert engine.spec_manager.state_for(func).active_version is None

    def test_deopt_resumes_baseline_with_correct_result(self):
        engine, func = _engine()
        _warm(engine)
        assert engine.run("poly", 9, 25) == _expected(9, 25)
        assert engine.deopt_manager.deopt_count == 1

    def test_deopt_does_not_recall_baseline_from_entry(self):
        """The OSR-exit continues mid-flight: no fresh engine.call of
        the baseline, no invalidation of the specialized version."""
        engine, func = _engine()
        _warm(engine)
        before = engine.call_counts.get("poly", 0)
        engine.run("poly", 9, 25)
        assert engine.call_counts.get("poly", 0) == before + 1
        state = engine.spec_manager.state_for(func)
        assert state.active_version is not None  # still speculating

    def test_stats_snapshot_reports_speculation(self):
        engine, func = _engine()
        _warm(engine)
        stats = engine.stats_snapshot()["speculation"]
        assert stats["poly"]["versions"] == 1
        assert stats["poly"]["active"].startswith("poly.spec")


class TestForcedFailures:
    def test_force_failure_mid_loop(self):
        engine, func = _engine()
        _warm(engine)
        version = engine.spec_manager.state_for(func).active_version
        loop_gid = [g for g, fs in version.guards.items()
                    if fs.landing.name == "loop"][0]
        engine.deopt_manager.force_failure(loop_gid, at_hit=5)
        # semantic condition holds, yet the armed guard deopts mid-loop
        assert engine.run("poly", 1, 40) == _expected(1, 40)
        assert engine.deopt_manager.deopt_count == 1

    def test_arming_retires_continuations_landing_in_the_owner(self):
        """A dispatch continuation cut from a version before one of its
        guards was armed must not outlive the arming: the next dispatch
        lands in code that runs the forced check."""
        engine, func = _engine()
        _warm(engine, mode=1)
        for _ in range(8):
            assert engine.run("poly", 2, 20) == _expected(2, 20)
        state = engine.spec_manager.state_for(func)
        armed, active = state.versions[(0, 1)], state.versions[(0, 2)]
        assert state.active_version is active
        deopt = engine.deopt_manager
        # a mode-1 call dispatches 2 -> 1 and stores that continuation
        assert engine.run("poly", 1, 40) == _expected(1, 40)
        loop_gid = [g for g, fs in armed.guards.items()
                    if fs.landing.name == "loop"][0]
        deopt.force_failure(loop_gid, at_hit=3)
        before = deopt.deopt_count
        assert engine.run("poly", 1, 40) == _expected(1, 40)
        # the dispatch exit, then the armed loop guard on its third hit
        assert deopt.deopt_count - before == 2
        assert deopt._forced[loop_gid]["hits"] == 3

    def test_unknown_guard_rejected(self):
        engine, func = _engine()
        _warm(engine)
        with pytest.raises(DeoptError):
            engine.deopt_manager.force_failure("nope#entry")

    def test_bad_hit_count_rejected(self):
        engine, func = _engine()
        _warm(engine)
        gid = next(iter(
            engine.spec_manager.state_for(func).active_version.guards))
        with pytest.raises(DeoptError):
            engine.deopt_manager.force_failure(gid, at_hit=0)


class TestDispatchedContinuations:
    def test_streak_respecializes_and_dispatches(self):
        engine, func = _engine()
        _warm(engine, mode=1)
        state = engine.spec_manager.state_for(func)
        # a streak of mode=7 failures earns a second specialization
        for _ in range(8):
            assert engine.run("poly", 7, 20) == _expected(7, 20)
        assert (0, 7) in state.versions
        assert state.active_version.value == 7
        assert state.respec_count == 1

    def test_flipping_back_dispatches_to_sibling(self):
        engine, func = _engine()
        _warm(engine, mode=1)
        state = engine.spec_manager.state_for(func)
        for _ in range(8):
            engine.run("poly", 7, 20)
        for _ in range(6):
            assert engine.run("poly", 1, 40) == _expected(1, 40)
        # the old sibling is re-activated, not rebuilt
        assert state.active_version.value == 1
        assert state.respec_count == 1

    def test_dispatch_solves_landing_liveness_on_the_engines_manager(self):
        """Deriving the mapping and generating the continuation share the
        engine's analysis manager: the default one sees no liveness miss."""
        engine, func = _engine(
            analysis_manager=AnalysisManager(telemetry=Telemetry()))
        _warm(engine, mode=1)
        for _ in range(8):
            engine.run("poly", 7, 20)
        dispatches = engine.stats_snapshot()["counters"][EV.SPEC_DISPATCH]
        with trace() as ambient:
            assert engine.run("poly", 1, 40) == _expected(1, 40)
        assert engine.stats_snapshot()["counters"][EV.SPEC_DISPATCH] == (
            dispatches + 1)
        assert not [e for e in ambient.events
                    if e["name"] == EV.ANALYSIS_CACHE_MISS
                    and e["args"]["analysis"] == "liveness"]

    def test_thrash_limit_pins_to_baseline(self):
        engine, func = _engine()
        _warm(engine, mode=1)
        state = engine.spec_manager.state_for(func)
        for mode in (11, 13, 17, 19, 23, 29):
            for _ in range(6):
                assert engine.run("poly", mode, 10) == _expected(mode, 10)
            if state.pinned:
                break
        assert state.pinned
        assert state.active_version is None
        # pinned functions still execute correctly through the baseline
        assert engine.run("poly", 999, 10) == _expected(999, 10)


class TestTelemetry:
    def test_events_are_in_vocabulary(self):
        tel = Telemetry()
        engine, func = _engine(telemetry=tel)
        _warm(engine)
        engine.run("poly", 9, 25)       # deopt to baseline
        for _ in range(8):
            engine.run("poly", 9, 25)   # streak -> respecialize
        events = tel.events
        assert validate_events(events) == []
        names = {e["name"] for e in events}
        assert EV.SPEC_SPECIALIZE in names
        assert EV.DEOPT_GUARD_FAIL in names
        assert EV.DEOPT_EXIT in names
        assert EV.DEOPT_CONTINUATION in names
        assert EV.SPEC_RESPECIALIZE in names

    def test_deopt_transition_timer_records_per_exit(self):
        tel = Telemetry()
        engine, func = _engine(telemetry=tel)
        _warm(engine)
        engine.run("poly", 9, 25)   # cold deopt: continuation generated
        engine.run("poly", 9, 25)   # warm deopt: continuation cache hit
        stats = tel.metrics.timer_stats(EV.DEOPT_TRANSITION)
        assert stats is not None
        assert stats["count"] == engine.deopt_manager.deopt_count >= 2
        assert 0 < stats["min"] <= stats["max"]
        assert stats["p50"] is not None

    def test_deopt_exit_modes(self):
        tel = Telemetry()
        engine, func = _engine(telemetry=tel)
        _warm(engine)
        for _ in range(8):
            engine.run("poly", 7, 20)
        for _ in range(6):
            engine.run("poly", 1, 40)
        modes = {e.get("args", {}).get("mode") for e in tel.events
                 if e["name"] == EV.DEOPT_EXIT}
        assert "baseline" in modes
        assert "dispatch" in modes


class TestInvalidationCascade:
    def test_invalidate_baseline_drops_versions(self):
        tel = Telemetry()
        engine, func = _engine(telemetry=tel)
        _warm(engine)
        state = engine.spec_manager.state_for(func)
        spec_name = state.active_version.function.name
        engine.invalidate(func)
        assert state.versions == {}
        assert state.active_version is None
        assert engine._compiled.get(spec_name) is None
        names = [e["name"] for e in tel.events]
        assert EV.DEOPT_INVALIDATE in names
        # correctness after the cascade: re-warms and re-specializes
        _warm(engine)
        assert state.active_version is not None
