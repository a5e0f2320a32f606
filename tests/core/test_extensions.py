"""Tests for the extension features beyond the paper's core:

* :func:`derive_state_mapping` — the paper's *future work*: automatic
  compensation-code construction for map-maintaining transformations;
* :func:`remove_osr_point` — de-instrumentation;
* ``use_stub=False`` — the inline-generation ablation configuration.
"""

import pytest

from repro.analysis import LivenessInfo
from repro.core import (
    AutoStateError,
    HotCounterCondition,
    derive_state_mapping,
    generate_continuation,
    insert_open_osr_point,
    insert_resolved_osr_point,
    remove_osr_point,
    required_landing_state,
)
from repro.core.instrument import split_block_at
from repro.ir import Module, print_function, verify_function
from repro.ir import types as T
from repro.ir.builder import IRBuilder
from repro.transform import clone_function, eliminate_dead_code, fold_constants
from repro.vm import ExecutionEngine

from ..conftest import build_sum_loop


def split_for_osr(func):
    loop = func.get_block("loop")
    location = loop.instructions[loop.first_non_phi_index]
    live = LivenessInfo(func).live_before(location)
    landing_origin = split_block_at(location)
    return live, landing_origin, location


class TestDeriveStateMapping:
    def test_identity_on_clone(self, module):
        func = build_sum_loop(module)
        live, landing_origin, _ = split_for_osr(func)
        variant, vmap = clone_function(func, "sum.v")
        landing = vmap[landing_origin]
        mapping = derive_state_mapping(live, vmap, variant, landing)
        assert list(mapping) == required_landing_state(variant, landing)
        assert mapping == {vmap[base]: i for i, base in enumerate(live)}

    def test_survives_fold_and_dce(self, module):
        func = build_sum_loop(module)
        live, landing_origin, _ = split_for_osr(func)
        variant, vmap = clone_function(func, "sum.v")
        fold_constants(variant)
        eliminate_dead_code(variant)
        landing = vmap[landing_origin]
        mapping = derive_state_mapping(live, vmap, variant, landing)
        cont = generate_continuation(variant, landing, live, mapping,
                                     module=module)
        verify_function(cont)
        engine = ExecutionEngine(module)
        assert engine.run(cont.name, 100, 10, 45) == sum(range(100))

    def test_recomputes_value_dead_at_source(self):
        """A value live at L' but not at L gets compensation code that
        recomputes it from transferred values — automatically."""
        from repro.ir import parse_module

        module = parse_module("""
define i64 @f(i64 %n) {
entry:
  %base = mul i64 %n, 7
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, %n
  br i1 %c, label %loop, label %out
out:
  %r = add i64 %i2, %base
  ret i64 %r
}
""")
        func = module.get_function("f")
        # OSR point at the loop: %base is live there too (used in %out)...
        # so make the variant where it matters: landing at %out, where
        # only (%i2, %base) are live; transfer just (n, i2) and let the
        # auto-mapper rebuild %base = n * 7
        variant, vmap = clone_function(func, "f.v")
        landing = variant.get_block("out")
        n = func.args[0]
        loop = func.get_block("loop")
        i2 = loop.instructions[1]
        live = [n, i2]  # NOTE: %base deliberately not transferred
        mapping = derive_state_mapping(live, vmap, variant, landing)
        cont = generate_continuation(variant, landing, live, mapping,
                                     module=module)
        verify_function(cont)
        # %i2 transfers as index 1; %base is recomputed as n * 7
        by_name = {v.name: source for v, source in mapping.items()}
        assert by_name["i2"] == 1 and callable(by_name["base"])
        assert "mul i64 %n_osr, 7" in print_function(cont)
        engine = ExecutionEngine(module)
        # resume at %out with n=10, i2=10: result = 10 + 70
        assert engine.run(cont.name, 10, 10) == 80

    def test_unreconstructible_value_diagnosed(self):
        from repro.ir import parse_module

        module = parse_module("""
declare i64 @opaque(i64 %x)

define i64 @f(i64 %n) {
entry:
  %secret = call i64 @opaque(i64 %n)
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, %n
  br i1 %c, label %loop, label %out
out:
  %r = add i64 %i2, %secret
  ret i64 %r
}
""")
        func = module.get_function("f")
        variant, vmap = clone_function(func, "f.v")
        landing = variant.get_block("out")
        loop = func.get_block("loop")
        live = [func.args[0], loop.instructions[1]]  # %secret missing
        with pytest.raises(AutoStateError, match="secret"):
            derive_state_mapping(live, vmap, variant, landing)


class TestRemoveOSRPoint:
    def test_restores_function(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        loop = func.get_block("loop")
        point = insert_resolved_osr_point(
            func, loop.instructions[loop.first_non_phi_index],
            HotCounterCondition(10), engine=engine,
        )
        before = engine.run("sum", 100)
        remove_osr_point(point, engine=engine)
        verify_function(func)
        text = print_function(func)
        assert "p.osr" not in text  # counter machinery fully stripped
        assert "osr" not in [b.name for b in func.blocks]
        assert engine.run("sum", 100) == before

    def test_double_removal_rejected(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        loop = func.get_block("loop")
        point = insert_resolved_osr_point(
            func, loop.instructions[loop.first_non_phi_index],
            HotCounterCondition(10), engine=engine,
        )
        remove_osr_point(point, engine=engine)
        from repro.core import OSRError

        with pytest.raises(OSRError):
            remove_osr_point(point)

    def test_reinstrument_after_removal(self, module):
        """Remove + re-insert: the re-arming workflow."""
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        loop = func.get_block("loop")
        point = insert_resolved_osr_point(
            func, loop.instructions[loop.first_non_phi_index],
            HotCounterCondition(10), engine=engine,
        )
        remove_osr_point(point, engine=engine)
        target = func.get_block("loop.cont")
        location = target.instructions[target.first_non_phi_index]
        insert_resolved_osr_point(
            func, location, HotCounterCondition(5), engine=engine,
        )
        assert engine.run("sum", 100) == sum(range(100))


class TestInlineGeneration:
    def _generator(self, module, env):
        def gen(func, block, _env, val):
            live = env["live"]
            by_name = {v.name: i for i, v in enumerate(live)}
            mapping = {v: by_name[v.name]
                       for v in required_landing_state(func, block)}
            return generate_continuation(func, block, live, mapping,
                                         module=module)

        return gen

    def test_no_stub_function_created(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        env = {"live": None}
        loop = func.get_block("loop")
        result = insert_open_osr_point(
            func, loop.instructions[loop.first_non_phi_index],
            HotCounterCondition(10), self._generator(module, env),
            engine, env=env, use_stub=False,
        )
        env["live"] = result.live_values
        assert result.stub is None
        assert not any(f.name.endswith("stub") for f in module.functions)
        assert engine.run("sum", 100) == sum(range(100))

    def test_inline_variant_injects_more_code(self, module):
        """The rationale for the stub (paper Section 2): inline
        generation machinery makes f_from bigger."""
        func_stub = build_sum_loop(module, "with_stub")
        func_inline = build_sum_loop(module, "inline_gen")
        engine = ExecutionEngine(module)
        env = {"live": None}
        for func, use_stub in ((func_stub, True), (func_inline, False)):
            loop = func.get_block("loop")
            result = insert_open_osr_point(
                func, loop.instructions[loop.first_non_phi_index],
                HotCounterCondition(HotCounterCondition.NEVER),
                self._generator(module, env), engine,
                env=env, use_stub=use_stub,
            )
        assert func_inline.instruction_count > func_stub.instruction_count
