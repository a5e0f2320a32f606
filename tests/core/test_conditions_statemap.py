"""Unit tests for OSR conditions and state-mapping primitives."""

import pytest

from repro.core.conditions import (
    AlwaysCondition,
    GuardCondition,
    HotCounterCondition,
    NeverCondition,
)
from repro.core.continuation import (
    generate_continuation,
    required_landing_state,
)
from repro.ir import types as T
from repro.ir.builder import IRBuilder
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import AllocaInst, LoadInst, PhiInst
from repro.ir.values import ConstantInt, Value
from repro.ir.verifier import verify_function
from repro.obs import events as EV
from repro.obs import local_telemetry

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
    """A state mapping is a plain dict: landing value -> transferred index
    or compensation callable, materialized in insertion order."""

    def _loop(self, module):
        func = build_sum_loop(module)
        landing = func.get_block("loop")
        return func, landing, required_landing_state(func, landing)

    def test_keys_by_identity(self):
        a = Value(T.i64, "a")
        b = Value(T.i64, "a")  # same name, different value
        mapping = {a: 0}
        assert a in mapping and b not in mapping

    def test_index_entries_emit_no_code(self, module):
        func, landing, live = self._loop(module)
        cont = generate_continuation(
            func, landing, live, {v: i for i, v in enumerate(live)},
            module=module)
        assert [i.opcode for i in cont.entry.instructions] == ["br"]

    def test_entries_materialize_in_insertion_order(self, module):
        func, landing, live = self._loop(module)

        def glue(index):
            def emit(builder, params):
                return builder.add(params[index], builder.const_i64(0),
                                   f"glue{index}")
            return emit

        # insertion order is the reverse of the landing-state order
        mapping = {v: glue(i) for i, v in reversed(list(enumerate(live)))}
        cont = generate_continuation(func, landing, live, mapping,
                                     module=module)
        names = [i.name for i in cont.entry.instructions if i.name]
        assert names == ["glue2", "glue1", "glue0"]

    def test_compensation_event_counts_callables(self, module):
        func, landing, live = self._loop(module)
        mapping = {v: i for i, v in enumerate(live)}
        mapping[live[2]] = lambda builder, params: params[2]
        tel = local_telemetry()
        cont = generate_continuation(func, landing, live, mapping,
                                     module=module, telemetry=tel)
        [event] = [e for e in tel.events if e["name"] == EV.OSR_COMPENSATION]
        assert event["args"] == {"continuation": cont.name, "entries": 3,
                                 "computed": 1}
