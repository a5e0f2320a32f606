"""Unit tests for the AnalysisManager: caching, selective invalidation,
structural-stamp safety nets, LRU bounds, and the stats/telemetry
agreement contract."""

import pytest

from repro.analysis import (
    ANALYSES,
    AnalysisManager,
    PreservedAnalyses,
    analysis_stamp,
    default_manager,
    resolve_manager,
)
from repro.analysis.manager import GRANULARITY_BODY, GRANULARITY_CFG
from repro.ir import parse_module
from repro.ir.builder import IRBuilder
from repro.ir.values import ConstantInt
from repro.obs import Telemetry

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


def _func(name="sumto", src=LOOP):
    return parse_module(src).get_function(name)


class TestCaching:
    def test_miss_then_hit_returns_same_object(self):
        am = AnalysisManager()
        func = _func()
        first = am.liveness(func)
        second = am.liveness(func)
        assert first is second
        assert am.stats()["misses"] == 1
        assert am.stats()["hits"] == 1

    def test_each_analysis_cached_independently(self):
        am = AnalysisManager()
        func = _func()
        am.liveness(func)
        am.dominator_tree(func)
        am.loop_info(func)
        assert am.stats()["misses"] == 3
        am.liveness(func)
        am.dominator_tree(func)
        am.loop_info(func)
        assert am.stats()["hits"] == 3
        assert am.stats()["entries"] == 3

    def test_loops_are_built_over_the_cached_dominator_tree(self):
        """``loops`` needs ``domtree``: the manager hands over (and keeps)
        its own, uncounted — consumers asked for one analysis."""
        am = AnalysisManager()
        func = _func()
        am.loop_info(func)
        assert am.stats()["misses"] == 1 and am.stats()["entries"] == 2
        assert am.cached("domtree", func) is not None
        am.dominator_tree(func)
        assert am.stats()["hits"] == 1

    def test_version_bump_recomputes(self):
        am = AnalysisManager()
        func = _func()
        first = am.liveness(func)
        func.bump_code_version()
        second = am.liveness(func)
        assert second is not first
        assert am.stats()["misses"] == 2

    def test_cached_peek_never_counts(self):
        am = AnalysisManager()
        func = _func()
        assert am.cached("liveness", func) is None
        live = am.liveness(func)
        assert am.cached("liveness", func) is live
        assert am.stats()["hits"] == 0
        assert am.stats()["misses"] == 1

    def test_unknown_analysis_raises(self):
        am = AnalysisManager()
        with pytest.raises(KeyError):
            am.get("nope", _func())


class TestStampSafetyNet:
    def test_mutation_without_bump_is_caught(self):
        """Adding an instruction without a version bump changes the
        body stamp: liveness recomputes, but the CFG-level dominator
        tree (block count unchanged) stays hot."""
        am = AnalysisManager()
        func = _func()
        stale_live = am.liveness(func)
        domtree = am.dominator_tree(func)

        out = func.get_block("out")
        builder = IRBuilder()
        builder.position_before(out.instructions[-1])
        builder.add(func.args[0], ConstantInt(func.args[0].type, 1), "pad")

        fresh_live = am.liveness(func)
        assert fresh_live is not stale_live
        assert am.dominator_tree(func) is domtree

    def test_stamp_granularities(self):
        func = _func()
        blocks, insts = func.code_shape()
        assert analysis_stamp(func, GRANULARITY_CFG) == (blocks,)
        assert analysis_stamp(func, GRANULARITY_BODY) == (blocks, insts)


class TestInvalidation:
    def test_invalidate_bumps_version(self):
        am = AnalysisManager()
        func = _func()
        before = func.code_version
        new_version = am.invalidate(func)
        assert new_version == func.code_version
        assert new_version != before
        assert am.stats()["invalidations"] == 1

    def test_invalidate_none_drops_everything(self):
        am = AnalysisManager()
        func = _func()
        am.liveness(func)
        am.dominator_tree(func)
        am.invalidate(func, PreservedAnalyses.none())
        assert am.cached("liveness", func) is None
        assert am.cached("domtree", func) is None

    def test_invalidate_migrates_preserved_entries(self):
        am = AnalysisManager()
        func = _func()
        live = am.liveness(func)
        domtree = am.dominator_tree(func)
        loops = am.loop_info(func)
        am.invalidate(func, PreservedAnalyses.cfg_only())
        # CFG-level results migrated to the new version; liveness gone
        assert am.cached("domtree", func) is domtree
        assert am.cached("loops", func) is loops
        assert am.cached("liveness", func) is None
        # and the migrated entry is a hit at the bumped version
        hits_before = am.stats()["hits"]
        assert am.dominator_tree(func) is domtree
        assert am.stats()["hits"] == hits_before + 1
        assert am.liveness(func) is not live

    def test_forget_keeps_version(self):
        am = AnalysisManager()
        func = _func()
        am.liveness(func)
        before = func.code_version
        am.forget(func)
        assert func.code_version == before
        assert am.cached("liveness", func) is None


class TestLRU:
    def test_cap_evicts_least_recently_used(self):
        am = AnalysisManager(max_functions=2)
        funcs = [_func() for _ in range(3)]
        for func in funcs:
            am.liveness(func)
        assert am.stats()["functions"] == 2
        # funcs[0] was evicted: re-query misses
        misses = am.stats()["misses"]
        am.liveness(funcs[0])
        assert am.stats()["misses"] == misses + 1

    def test_hit_refreshes_recency(self):
        am = AnalysisManager(max_functions=2)
        a, b, c = (_func() for _ in range(3))
        am.liveness(a)
        am.liveness(b)
        am.liveness(a)  # refresh a: b is now the eviction candidate
        am.liveness(c)
        assert am.cached("liveness", a) is not None
        assert am.cached("liveness", b) is None


class TestPreservedAnalyses:
    def test_all_none(self):
        assert PreservedAnalyses.all().preserves_all
        assert PreservedAnalyses.all().preserves("liveness")
        assert not PreservedAnalyses.none().preserves_all
        assert not PreservedAnalyses.none().preserves("liveness")
        assert PreservedAnalyses.none().preserved_names() == frozenset()

    def test_cfg_only_matches_registry_granularity(self):
        preserved = PreservedAnalyses.cfg_only()
        for name, spec in ANALYSES.items():
            assert preserved.preserves(name) == (
                spec.granularity == GRANULARITY_CFG
            )

    def test_preserve_validates_names(self):
        preserved = PreservedAnalyses.preserve("domtree")
        assert preserved.preserves("domtree")
        assert not preserved.preserves("liveness")
        with pytest.raises(KeyError):
            PreservedAnalyses.preserve("typo")


class TestDefaultManager:
    def test_resolve_prefers_explicit(self):
        am = AnalysisManager()
        assert resolve_manager(am) is am
        assert resolve_manager(None) is default_manager()
        assert default_manager() is default_manager()


class TestTelemetryAgreement:
    def test_counters_mirror_stats(self):
        tel = Telemetry()
        am = AnalysisManager(telemetry=tel)
        func = _func()
        am.liveness(func)
        am.liveness(func)
        am.dominator_tree(func)
        am.invalidate(func, PreservedAnalyses.cfg_only())
        am.liveness(func)

        counters = tel.metrics.snapshot()["counters"]
        stats = am.stats()
        assert counters.get("analysis.cache_hit", 0) == stats["hits"]
        assert counters.get("analysis.cache_miss", 0) == stats["misses"]
        assert counters.get("analysis.invalidate", 0) == stats["invalidations"]

    def test_engine_snapshot_exposes_manager_stats(self):
        """An engine's ``analysis`` block is the process-wide manager's
        stats, and what the engine's work adds to them the trace's
        counters see one-for-one."""
        from repro.obs import trace
        from repro.vm import ExecutionEngine

        manager = default_manager()
        module = parse_module(LOOP)
        with trace() as tel:
            engine = ExecutionEngine(module, tier="jit")
            assert engine.analysis is manager
            before = manager.stats()
            assert engine.run("sumto", 10) == sum(range(11))
            engine.invalidate(module.get_function("sumto"))
            manager.liveness(module.get_function("sumto"))
            snapshot = engine.stats_snapshot()["analysis"]

        assert snapshot == manager.stats()
        counters = tel.metrics.snapshot()["counters"]
        assert snapshot["misses"] > before["misses"]
        assert snapshot["invalidations"] > before["invalidations"]
        for key, counter in (("hits", "analysis.cache_hit"),
                             ("misses", "analysis.cache_miss"),
                             ("invalidations", "analysis.invalidate")):
            assert counters.get(counter, 0) == snapshot[key] - before[key]
