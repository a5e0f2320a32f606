"""The speculation policy: decide once, miss as a call, dispatch,
respecialization, thrash pinning, invalidation."""

from collections import Counter

import pytest

from repro.ir import Module, parse_function
from repro.ir.types import i64
from repro.ir.values import ConstantInt
from repro.obs import events as EV
from repro.obs.events import validate_events
from repro.obs.telemetry import Telemetry
from repro.shootout import SUITE, compile_benchmark
from repro.spec import SpeculationManager
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


#: ``poly`` whose fast path calls a function of its own module, so every
#: specialization cloned from it is a caller of ``@scale`` too
SCALE = """
define i64 @scale(i64 %i, i64 %by) {
entry:
  %t = mul i64 %i, %by
  ret i64 %t
}
"""
POLY_CALLING = POLY.replace(
    "%f = add i64 %acc, %i",
    "%u = call i64 @scale(i64 %i, i64 1)\n  %f = add i64 %acc, %u")


def _engine(telemetry=None, sources=(POLY,), **kwargs):
    module = Module()
    for source in sources:
        func = parse_function(source, module)
    kwargs.setdefault("call_threshold", 3)
    engine = ExecutionEngine(module, tier="speculative",
                             telemetry=telemetry, **kwargs)
    return engine, func


def _warm(engine, mode=1, n=40, calls=10):
    for _ in range(calls):
        assert engine.run("poly", mode, n) == _expected(mode, n)


def _counter(engine, name):
    return engine.stats_snapshot()["counters"].get(name, 0)


class TestSpeculativeTier:
    def test_specialization_activates_on_monomorphic_feedback(self):
        engine, func = _engine()
        _warm(engine)
        state = engine.spec_manager.state_for(func)
        assert state.active_version is not None
        assert state.active_version.value == 1

    def test_the_hit_path_is_the_specialized_code_itself(self):
        engine, func = _engine()
        _warm(engine)
        version = engine.spec_manager.state_for(func).active_version
        assert engine.get_compiled(func) is engine.continuations()[
            version.function.name]

    def test_a_miss_returns_the_right_result(self):
        engine, func = _engine()
        _warm(engine)
        assert engine.run("poly", 9, 25) == _expected(9, 25)
        assert _counter(engine, EV.DEOPT_GUARD_FAIL) == 1
        assert _counter(engine, EV.DEOPT_EXIT) == 1

    def test_a_miss_calls_compiled_code_not_the_engine(self, monkeypatch):
        """The miss continues in the plain code: the engine is entered
        once, by the top-level call, and the specialization stays
        published."""
        engine, func = _engine()
        _warm(engine)
        entered = Counter()
        inner = engine._call

        def spy(callee, args):
            entered[callee.name] += 1
            return inner(callee, args)

        # ``engine.call`` enters ``_call``, and so would a miss path
        # that re-entered the engine
        monkeypatch.setattr(engine, "_call", spy)
        assert engine.run("poly", 9, 25) == _expected(9, 25)
        assert entered["poly"] == 1
        state = engine.spec_manager.state_for(func)
        assert state.active_version is not None
        assert engine.get_compiled(func) is engine.continuations()[
            state.active_version.function.name]

    def test_stats_snapshot_reports_speculation(self):
        engine, func = _engine()
        _warm(engine)
        stats = engine.stats_snapshot()["speculation"]
        assert stats["poly"]["versions"] == 1
        assert stats["poly"]["active"].startswith("poly.spec")


class TestDecideOnce:
    def test_polymorphic_feedback_publishes_the_plain_code(self):
        engine, func = _engine()
        # both argument slots vary, so no slot is monomorphic
        for mode in (1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6):
            n = 20 + mode
            assert engine.run("poly", mode, n) == _expected(mode, n)
        state = engine.spec_manager.state_for(func)
        assert state.active_version is None
        assert engine.get_compiled(func) is state.plain

    def test_the_deciding_call_is_the_one_that_specializes(self):
        engine, func = _engine(call_threshold=2)
        for _ in range(3):
            engine.run("poly", 1, 10)
        state = engine.spec_manager.state_for(func)
        assert state.active_version is None
        # the fourth sample reaches min_samples
        engine.run("poly", 1, 10)
        assert state.active_version is not None

    def test_a_retired_stage_decides_nothing(self):
        engine, func = _engine(call_threshold=2)
        for _ in range(2):
            engine.run("poly", 1, 10)
        stage = engine.get_compiled(func)  # promoted, still undecided
        engine.invalidate(func)
        for _ in range(5):
            assert stage(1, 10) == _expected(1, 10)
        assert engine.spec_manager.state_for(func).versions == {}

    @pytest.mark.parametrize("name", ["b-trees", "fasta"])
    def test_feedback_stage_runs_at_most_min_samples_times(
            self, name, monkeypatch):
        runs = Counter()
        promote = SpeculationManager.on_promote

        def counting(self, func, compiled):
            stage = promote(self, func, compiled)

            def counted(*args):
                runs[func.name] += 1
                return stage(*args)

            return counted

        monkeypatch.setattr(SpeculationManager, "on_promote", counting)
        bench = SUITE[name]
        arg = 5 if name == "b-trees" else 300
        engine = ExecutionEngine(compile_benchmark(bench), tier="speculative")
        oracle = ExecutionEngine(compile_benchmark(bench), tier="interp")
        for _ in range(3):
            assert engine.run(bench.entry, arg) == oracle.run(bench.entry, arg)
        assert runs, "nothing was promoted"
        assert max(runs.values()) <= engine.spec_manager.min_samples, runs


class TestMissPolicy:
    def test_streak_respecializes(self):
        engine, func = _engine()
        _warm(engine, mode=1)
        state = engine.spec_manager.state_for(func)
        # a streak of mode=7 misses earns a second specialization
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
        dispatches = _counter(engine, EV.SPEC_DISPATCH)
        for _ in range(6):
            assert engine.run("poly", 1, 40) == _expected(1, 40)
        # the old sibling is re-activated, not rebuilt
        assert state.active_version.value == 1
        assert state.respec_count == 1
        assert _counter(engine, EV.SPEC_DISPATCH) == dispatches + 2

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
        assert engine.get_compiled(func) is state.plain
        # pinned functions still execute correctly through the baseline
        assert engine.run("poly", 999, 10) == _expected(999, 10)


class TestTelemetry:
    def test_events_are_in_vocabulary(self):
        tel = Telemetry()
        engine, func = _engine(telemetry=tel)
        _warm(engine)
        engine.run("poly", 9, 25)       # miss into the plain code
        for _ in range(8):
            engine.run("poly", 9, 25)   # streak -> respecialize
        events = tel.events
        assert validate_events(events) == []
        names = {e["name"] for e in events}
        assert {EV.SPEC_SPECIALIZE, EV.DEOPT_GUARD_FAIL, EV.DEOPT_EXIT,
                EV.SPEC_RESPECIALIZE} <= names

    def test_every_miss_is_one_call_exit(self):
        tel = Telemetry()
        engine, func = _engine(telemetry=tel)
        _warm(engine)
        for _ in range(8):
            engine.run("poly", 7, 20)
        for _ in range(6):
            engine.run("poly", 1, 40)
        fails = [e for e in tel.events if e["name"] == EV.DEOPT_GUARD_FAIL]
        exits = [e for e in tel.events if e["name"] == EV.DEOPT_EXIT]
        assert fails and len(exits) == len(fails)
        assert {e["args"]["mode"] for e in exits} == {"call"}
        assert {e["args"]["target"] for e in exits} >= {
            "poly", engine.spec_manager.state_for(func).versions[
                (0, 1)].function.name}


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
        # correctness after the cascade: re-warms and re-specializes
        _warm(engine)
        assert state.active_version is not None

    @staticmethod
    def _rewrite(func):
        """The slow arm multiplies by 3 instead of by %mode."""
        mul = next(inst for inst in func.instructions()
                   if inst.opcode == "mul")
        mul.set_operand(1, ConstantInt(i64, 3))

    def test_invalidation_between_a_hit_and_a_miss(self):
        engine, func = _engine()
        _warm(engine)
        assert engine.run("poly", 1, 40) == _expected(1, 40)  # a hit
        self._rewrite(func)
        engine.invalidate(func)
        fails = _counter(engine, EV.DEOPT_GUARD_FAIL)
        # the retired plain code would multiply by 9
        assert engine.run("poly", 9, 25) == 3 * _expected(1, 25)
        # and the retired specialization never ran its check
        assert _counter(engine, EV.DEOPT_GUARD_FAIL) == fails

    def test_a_stale_reference_misses_into_the_rewritten_body(self):
        engine, func = _engine()
        _warm(engine)
        stale = engine.get_compiled(func)
        self._rewrite(func)
        engine.invalidate(func)
        assert stale(9, 25) == 3 * _expected(1, 25)

    def test_invalidation_retires_versions_from_module_and_natives(self):
        engine, func = _engine(sources=(SCALE, POLY_CALLING))
        fresh_natives = len(_engine()[0]._natives)
        scale = engine.module.get_function("scale")

        def assert_only_live_versions_kept():
            manager = engine.spec_manager
            versions = manager.state_for(func).versions.values()
            # ``scale`` speculates on its constant argument too
            everyone = [*versions, *manager.state_for(scale).versions.values()]
            live = {name for version in everyone
                    for name in (version.function.name, version.miss.name)}
            assert {f.name for f in engine.module.functions} == (
                {"poly", "scale"} | live)
            assert len(engine._natives) == fresh_natives + len(everyone)
            # a retired version's body no longer counts as a caller: what
            # calls ``scale`` is ``poly`` and its live versions
            assert len(scale.uses) == 1 + len(versions)
            assert func.uses == []

        for _ in range(6):
            _warm(engine)
            assert engine.run("poly", 9, 25) == _expected(9, 25)  # a miss
            engine.invalidate(func)
            assert_only_live_versions_kept()
        # and the next warm-up specializes again, into one live version
        _warm(engine)
        state = engine.spec_manager.state_for(func)
        assert state.active_version is not None and len(state.versions) == 1
        assert_only_live_versions_kept()
