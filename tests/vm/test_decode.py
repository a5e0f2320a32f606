"""Unit tests for the pre-decoded interpreter tier, the cross-engine JIT
code cache, and profile-driven tier-up."""

import pytest

from repro.ir import parse_module
from repro.vm import (
    DecodeError,
    DecodedFunction,
    ExecutionEngine,
    Trap,
    codegen_function,
    decode_function,
)

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


def _engine(src, **kwargs):
    module = parse_module(src)
    return ExecutionEngine(module, **kwargs), module


class TestDecodedFunction:
    def test_runs_and_matches_signature(self):
        engine, module = _engine(LOOP, tier="decoded")
        decoded = decode_function(module.get_function("sumto"), engine)
        assert isinstance(decoded, DecodedFunction)
        assert decoded.run([10]) == sum(range(11))
        assert engine.run("sumto", 10) == sum(range(11))

    def test_arity_mismatch_traps(self):
        engine, module = _engine(LOOP, tier="decoded")
        with pytest.raises(Trap):
            engine.run("sumto", 1, 2)

    def test_declaration_is_not_decodable(self):
        engine, module = _engine("declare i64 @ext(i64)")
        with pytest.raises(DecodeError):
            decode_function(module.get_function("ext"), engine)

    def test_snapshot_version_recorded(self):
        engine, module = _engine(LOOP, tier="decoded")
        func = module.get_function("sumto")
        decoded = decode_function(func, engine)
        assert decoded.version == func.code_version
        func.bump_code_version()
        assert decoded.version != func.code_version

    def test_backedge_profile_counts_loop_iterations(self):
        from repro.vm import FunctionProfile

        engine, module = _engine(LOOP, tier="decoded")
        decoded = decode_function(module.get_function("sumto"), engine)
        profile = FunctionProfile("sumto")
        decoded.run_counted([25], profile)
        assert profile.backedges >= 25


class TestCodeCache:
    def test_cache_hit_across_engines(self):
        module = parse_module(LOOP)
        func = module.get_function("sumto")

        cold = ExecutionEngine(module, tier="jit")
        assert cold.run("sumto", 5) == 15
        assert cold.jit_cache_misses == 1
        assert cold.jit_cache_hits == 0

        warm = ExecutionEngine(module, tier="jit")
        assert warm.run("sumto", 5) == 15
        assert warm.jit_cache_hits == 1
        assert warm.jit_cache_misses == 0

    def test_cached_artifact_is_shared(self):
        module = parse_module(LOOP)
        func = module.get_function("sumto")
        first = codegen_function(func)
        second = codegen_function(func)
        assert first is second
        assert first.matches(func)

    def test_version_bump_invalidates_artifact(self):
        module = parse_module(LOOP)
        func = module.get_function("sumto")
        first = codegen_function(func)
        func.bump_code_version()
        assert not first.matches(func)
        second = codegen_function(func)
        assert second is not first

    def test_engine_invalidate_forces_recompile(self):
        module = parse_module(LOOP)
        engine = ExecutionEngine(module, tier="jit")
        func = module.get_function("sumto")
        assert engine.run("sumto", 5) == 15
        before = func.code_version
        engine.invalidate(func)
        assert func.code_version != before
        assert engine.run("sumto", 5) == 15
        assert engine.jit_cache_misses == 2  # recompiled, not reused

    def test_modifying_pass_invalidates_artifact(self):
        from repro.transform import PassManager

        module = parse_module(
            """
            define i64 @f(i64 %n) {
            entry:
              %x = alloca i64
              store i64 %n, i64* %x
              %v = load i64, i64* %x
              ret i64 %v
            }
            """
        )
        func = module.get_function("f")
        stale = codegen_function(func)
        PassManager.pipeline("unoptimized").run(func)  # mem2reg promotes %x
        assert not stale.matches(func)

    def test_no_op_pass_preserves_artifact(self):
        from repro.transform import PassManager

        module = parse_module(LOOP)
        func = module.get_function("sumto")
        artifact = codegen_function(func)
        # LOOP is already in SSA form: mem2reg changes nothing, so the
        # compiled artifact stays valid (selective invalidation)
        PassManager.pipeline("unoptimized").run(func)
        assert artifact.matches(func)

    def test_osr_instrumentation_bumps_version(self):
        from repro.core import HotCounterCondition, insert_resolved_osr_point

        module = parse_module(LOOP)
        func = module.get_function("sumto")
        before = func.code_version
        loop = func.get_block("loop")
        insert_resolved_osr_point(
            func, loop.instructions[loop.first_non_phi_index],
            HotCounterCondition(1000),
        )
        assert func.code_version != before


class TestTierUp:
    def test_promotion_at_call_threshold(self):
        engine, module = _engine(LOOP, tier="tiered", call_threshold=4)
        for _ in range(3):
            assert engine.run("sumto", 5) == 15
        assert engine.tier_promotions == 0
        assert engine.run("sumto", 5) == 15
        assert engine.tier_promotions == 1
        # further calls stay on the promoted path
        assert engine.run("sumto", 5) == 15
        assert engine.tier_promotions == 1

    def test_promotion_via_hot_backedges(self):
        engine, module = _engine(
            LOOP, tier="tiered", call_threshold=1000, backedge_threshold=50
        )
        assert engine.run("sumto", 200) == sum(range(201))
        # the loop ran hot: the next call promotes
        assert engine.run("sumto", 5) == 15
        assert engine.tier_promotions == 1

    def test_invalidate_demotes(self):
        engine, module = _engine(LOOP, tier="tiered", call_threshold=2)
        func = module.get_function("sumto")
        for _ in range(3):
            engine.run("sumto", 5)
        assert engine.tier_promotions == 1
        engine.invalidate(func)
        assert not engine.profiler.profile_for("sumto").promoted
        for _ in range(3):
            assert engine.run("sumto", 5) == 15
        assert engine.tier_promotions == 2  # re-promoted after demotion

    def test_stats_snapshot_shape(self):
        engine, module = _engine(LOOP, tier="tiered", call_threshold=2)
        for _ in range(3):
            engine.run("sumto", 5)
        snapshot = engine.stats_snapshot()
        assert snapshot["counters"]["tier.promote"] == 1
        assert "sumto" in snapshot["profiles"]
        assert snapshot["profiles"]["sumto"]["calls"] >= 2

    def test_default_engine_is_tiered(self):
        module = parse_module(LOOP)
        engine = ExecutionEngine(module)
        assert engine.tier == "tiered"
        assert engine.run("sumto", 5) == 15
