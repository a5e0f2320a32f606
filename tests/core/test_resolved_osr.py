"""Resolved-OSR tests (paper Figure 2): instrumentation shape and the
central *transparency* property — firing an OSR must not change observable
behaviour."""

import pytest

from repro.core import (
    AlwaysCondition,
    HotCounterCondition,
    NeverCondition,
    OSRError,
    insert_resolved_osr_point,
)
from repro.ir import print_function, verify_function
from repro.ir import types as T
from repro.ir.instructions import CallInst, PhiInst
from repro.vm import ExecutionEngine

from ..conftest import build_branchy, build_sum_loop


def loop_location(func):
    loop = func.get_block("loop")
    return loop.instructions[loop.first_non_phi_index]


class TestInstrumentationShape:
    def test_osr_block_added(self, module):
        func = build_sum_loop(module)
        result = insert_resolved_osr_point(
            func, loop_location(func), HotCounterCondition(10)
        )
        verify_function(func)
        names = [b.name for b in func.blocks]
        assert "osr" in names
        assert "loop.cont" in names

    def test_osr_block_tail_calls_continuation(self, module):
        func = build_sum_loop(module)
        result = insert_resolved_osr_point(
            func, loop_location(func), HotCounterCondition(10)
        )
        call = result.osr_block.instructions[0]
        assert isinstance(call, CallInst)
        assert call.is_tail
        assert call.callee is result.continuation

    def test_live_values_passed_in_order(self, module):
        func = build_sum_loop(module)
        result = insert_resolved_osr_point(
            func, loop_location(func), HotCounterCondition(10)
        )
        call = result.osr_block.instructions[0]
        assert [a.name for a in call.args] == ["n", "i", "acc"]

    def test_counter_promoted_to_phi(self, module):
        func = build_sum_loop(module)
        insert_resolved_osr_point(
            func, loop_location(func), HotCounterCondition(10)
        )
        # Figure 5 shape: the counter lives in a phi, not an alloca
        text = print_function(func)
        assert "alloca" not in text
        assert "p.osr" in text

    def test_continuation_signature_matches_live_values(self, module):
        func = build_sum_loop(module)
        result = insert_resolved_osr_point(
            func, loop_location(func), HotCounterCondition(10)
        )
        cont = result.continuation
        assert [a.name for a in cont.args] == ["n_osr", "i_osr", "acc_osr"]
        assert cont.return_type == func.return_type

    def test_continuation_entry_is_osr_entry(self, module):
        func = build_sum_loop(module)
        result = insert_resolved_osr_point(
            func, loop_location(func), HotCounterCondition(10)
        )
        assert result.continuation.entry.name == "osr.entry"
        verify_function(result.continuation)

    def test_module_gains_only_the_continuation(self, module):
        func = build_sum_loop(module)
        result = insert_resolved_osr_point(
            func, loop_location(func), HotCounterCondition(10)
        )
        assert result.variant is func
        assert [f.name for f in module.functions] == ["sum", "sumto"]
        assert module.get_function("sumto") is result.continuation


class TestTransparency:
    @pytest.mark.parametrize("n", [0, 1, 5, 50, 500])
    def test_hot_counter_firing_preserves_result(self, module, n):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        expected = sum(range(n))
        insert_resolved_osr_point(
            func, loop_location(func), HotCounterCondition(10),
            engine=engine,
        )
        assert engine.run("sum", n) == expected

    def test_always_firing(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        insert_resolved_osr_point(
            func, loop_location(func), AlwaysCondition(), engine=engine
        )
        assert engine.run("sum", 100) == sum(range(100))

    def test_never_firing(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        insert_resolved_osr_point(
            func, loop_location(func), NeverCondition(), engine=engine
        )
        assert engine.run("sum", 100) == sum(range(100))

    def test_repeat_invocations_each_reset_counter(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        insert_resolved_osr_point(
            func, loop_location(func), HotCounterCondition(7), engine=engine
        )
        for n in (3, 10, 30):
            assert engine.run("sum", n) == sum(range(n))

    def test_mid_block_osr_point(self, module):
        """OSR at an arbitrary (non-header) location — the capability
        McOSR lacks."""
        func = build_sum_loop(module)
        loop = func.get_block("loop")
        # place the point between acc2 and i2, mid-block
        location = loop.instructions[3]
        assert location.name == "i2"
        engine = ExecutionEngine(module)
        insert_resolved_osr_point(
            func, location, HotCounterCondition(5), engine=engine
        )
        verify_function(func)
        assert engine.run("sum", 100) == sum(range(100))

    def test_osr_at_function_entry(self, module):
        func = build_branchy(module)
        engine = ExecutionEngine(module)
        location = func.entry.instructions[0]
        insert_resolved_osr_point(
            func, location, AlwaysCondition(), engine=engine
        )
        verify_function(func)
        assert engine.run("branchy", 10, 3) == 20
        assert engine.run("branchy", 1, 3) == 10

    def test_interpreter_tier_also_works(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module, tier="interp")
        insert_resolved_osr_point(
            func, loop_location(func), HotCounterCondition(10),
            engine=engine,
        )
        assert engine.run("sum", 50) == sum(range(50))


class TestChainedOSR:
    def test_osr_from_continuation(self, module):
        """f -> f' -> f'' chains: a continuation can fire its own OSR."""
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        first = insert_resolved_osr_point(
            func, loop_location(func), HotCounterCondition(10),
            engine=engine,
        )
        cont = first.continuation
        # instrument the continuation at its landing block
        landing = cont.entry.successors()[0]
        location = landing.instructions[landing.first_non_phi_index]
        second = insert_resolved_osr_point(
            cont, location, HotCounterCondition(10), engine=engine
        )
        verify_function(cont)
        verify_function(second.continuation)
        assert engine.run("sum", 100) == sum(range(100))


SCRATCH_C = """
long spin(long n) {
    long acc[4];
    long total = 0;
    for (long i = 0; i < n; i++) {
        acc[0] = i;
        acc[1] = i * 2;
        acc[2] = acc[0] + acc[1];
        acc[3] = acc[2] - i;
        total = total + acc[3];
    }
    return total;
}
"""


class TestScalarizedOSRState:
    """Running the ``scalarize`` pass before inserting the point splits a
    private scratch aggregate, so it stops being OSR state entirely."""

    def _prepared(self, scalarize=False):
        from repro.frontend import compile_c
        from repro.transform import PassManager

        module = compile_c(SCRATCH_C)
        func = module.get_function("spin")
        PassManager.pipeline("unoptimized").run(func)
        if scalarize:
            PassManager(["scalarize"]).run(func)
        return module, func

    def _live_width(self, scalarize):
        from repro.experiments.sites import loop_osr_location

        module, func = self._prepared(scalarize)
        result = insert_resolved_osr_point(
            func, loop_osr_location(func), HotCounterCondition(10),
        )
        verify_function(func)
        verify_function(result.continuation)
        return module, len(result.osr_block.instructions[0].args)

    def test_scalarize_shrinks_live_state(self):
        _, plain = self._live_width(scalarize=False)
        _, slim = self._live_width(scalarize=True)
        # the aggregate pointer drops out of the state; the per-iteration
        # scratch values are dead at the header, so nothing replaces it
        assert slim < plain

    def test_scalarized_osr_is_transparent(self):
        ref_module, ref_func = self._prepared()
        from repro.vm.interpreter import Interpreter
        ref = Interpreter(ref_module).run_function(ref_func, [40])

        module, func = self._prepared(scalarize=True)
        from repro.experiments.sites import loop_osr_location
        engine = ExecutionEngine(module)
        insert_resolved_osr_point(
            func, loop_osr_location(func), HotCounterCondition(5),
            engine=engine,
        )
        assert engine.run("spin", 40) == ref


class TestErrors:
    def test_function_outside_module_rejected(self):
        from repro.ir.function import BasicBlock, Function
        from repro.ir.builder import IRBuilder

        func = Function(T.function(T.i64), "orphan")
        block = BasicBlock("entry", func)
        b = IRBuilder(block)
        ret = b.ret(b.const_i64(0))
        with pytest.raises(OSRError):
            insert_resolved_osr_point(func, ret, AlwaysCondition())

    def test_phi_location_rejected(self, module):
        func = build_sum_loop(module)
        phi = func.get_block("loop").phis[0]
        with pytest.raises(OSRError):
            insert_resolved_osr_point(func, phi, AlwaysCondition())

    def test_explicit_variant_needs_mapping(self, module):
        func = build_sum_loop(module)
        other = build_sum_loop(module.__class__("m2"), "other")
        with pytest.raises(OSRError):
            insert_resolved_osr_point(
                func, loop_location(func), AlwaysCondition(), variant=other
            )
