"""Unit tests for OSR conditions and state-mapping primitives."""

import pytest

from repro.core.conditions import (
    AlwaysCondition,
    GuardCondition,
    HotCounterCondition,
    NeverCondition,
)
from repro.core.statemap import (
    Computed,
    FromConstant,
    FromParam,
    StateMapping,
)
from repro.ir import types as T
from repro.ir.builder import IRBuilder
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import AllocaInst, LoadInst, PhiInst
from repro.ir.values import ConstantInt, Value
from repro.ir.verifier import verify_function

from ..conftest import build_sum_loop


def _prepared(module):
    func = build_sum_loop(module)
    loop = func.get_block("loop")
    builder = IRBuilder().position_before(loop.terminator)
    return func, builder


class TestHotCounter:
    def test_emits_the_counter_in_ssa_form(self, module):
        """No slot, no load/store: the threshold on entry, the decrement
        at the check and one phi where they meet."""
        func, builder = _prepared(module)
        cond = HotCounterCondition(10).emit(func, builder)
        assert cond.type == T.i1
        assert not any(isinstance(i, (AllocaInst, LoadInst))
                       for i in func.instructions())
        loop = func.get_block("loop")
        counter = loop.instructions[0]
        assert isinstance(counter, PhiInst) and counter.name == "p.osr.phi"
        decremented = cond.lhs
        assert decremented.lhs is counter
        assert [(getattr(v, "value", v), b.name)
                for v, b in counter.incoming] == [
            (10, "entry"), (decremented, "loop")]

    def test_emission_leaves_the_builder_where_it_was(self, module):
        """The counter phi lands above the builder's position; what the
        builder emits next still goes before the terminator."""
        func, builder = _prepared(module)
        loop = func.get_block("loop")
        HotCounterCondition(10).emit(func, builder)
        marker = builder.add(func.args[0], builder.const_i64(1), "marker")
        assert loop.instructions[-2] is marker
        verify_function(func)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            HotCounterCondition(0)
        with pytest.raises(ValueError):
            HotCounterCondition(-5)

    def test_never_constant_is_huge(self):
        assert HotCounterCondition.NEVER > 10**15


class TestTrivialConditions:
    def test_always(self, module):
        func, builder = _prepared(module)
        value = AlwaysCondition().emit(func, builder)
        assert isinstance(value, ConstantInt) and value.value == 1

    def test_never(self, module):
        func, builder = _prepared(module)
        value = NeverCondition().emit(func, builder)
        assert isinstance(value, ConstantInt) and value.value == 0

    def test_guard_calls_emitter(self, module):
        func, builder = _prepared(module)
        seen = {}

        def emitter(f, b):
            seen["func"] = f
            return b.const_i1(True)

        GuardCondition(emitter).emit(func, builder)
        assert seen["func"] is func

    def test_guard_type_checked(self, module):
        func, builder = _prepared(module)
        bad = GuardCondition(lambda f, b: b.const_i64(1))
        with pytest.raises(TypeError):
            bad.emit(func, builder)


class TestStateMapping:
    def test_set_get_by_identity(self):
        mapping = StateMapping()
        a = Value(T.i64, "a")
        b = Value(T.i64, "a")  # same name, different value
        mapping.set(a, FromParam(0))
        assert isinstance(mapping.get(a), FromParam)
        assert mapping.get(b) is None

    def test_identity_factory(self):
        values = [Value(T.i64, f"v{i}") for i in range(3)]
        mapping = StateMapping.identity(values)
        assert len(mapping) == 3
        for index, value in enumerate(values):
            source = mapping.get(value)
            assert isinstance(source, FromParam)
            assert source.index == index

    def test_translate_keys(self):
        values = [Value(T.i64, "x")]
        mapping = StateMapping.identity(values)

        translated_value = Value(T.i64, "x'")

        class FakeMap:
            def lookup(self, v):
                return translated_value

        translated = mapping.translate_keys(FakeMap())
        assert translated.get(translated_value) is not None
        assert translated.get(values[0]) is None

    def test_from_constant_materialize(self, module):
        func, builder = _prepared(module)
        const = ConstantInt(T.i64, 9)
        assert FromConstant(const).materialize(builder, []) is const

    def test_from_param_materialize(self, module):
        func, builder = _prepared(module)
        params = [Value(T.i64, "p0"), Value(T.i64, "p1")]
        assert FromParam(1).materialize(builder, params) is params[1]

    def test_computed_materialize_emits(self, module):
        func, builder = _prepared(module)
        before = func.instruction_count

        source = Computed(
            lambda b, params: b.add(b.const_i64(1), b.const_i64(2), "glue")
        )
        value = source.materialize(builder, [])
        assert value.name == "glue"
        assert func.instruction_count == before + 1

    def test_items_preserve_order(self):
        mapping = StateMapping()
        values = [Value(T.i64, f"v{i}") for i in range(5)]
        for index, value in enumerate(values):
            mapping.set(value, FromParam(index))
        assert [v.name for v, _ in mapping.items()] == [
            "v0", "v1", "v2", "v3", "v4",
        ]
