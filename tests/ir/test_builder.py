"""IRBuilder tests: positioning, emission order and conveniences."""

import pytest

from repro.ir import types as T
from repro.ir.builder import IRBuilder
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    CastInst,
    GEPInst,
    PhiInst,
    SelectInst,
)
from repro.ir.values import ConstantInt


@pytest.fixture
def block():
    func = Function(T.function(T.i64, T.i64), "f", ["n"])
    Module("m").add_function(func)
    return BasicBlock("entry", func)


class TestPositioning:
    def test_no_insertion_point(self):
        with pytest.raises(ValueError):
            IRBuilder().add(ConstantInt(T.i64, 1), ConstantInt(T.i64, 2))

    def test_append_at_end(self, block):
        b = IRBuilder(block)
        x = b.add(b.const_i64(1), b.const_i64(2), "x")
        y = b.add(x, x, "y")
        assert block.instructions == [x, y]

    def test_position_before(self, block):
        b = IRBuilder(block)
        x = b.add(b.const_i64(1), b.const_i64(2), "x")
        y = b.add(x, x, "y")
        b.position_before(y)
        z = b.add(x, b.const_i64(3), "z")
        assert block.instructions == [x, z, y]

    def test_position_before_keeps_relative_order(self, block):
        b = IRBuilder(block)
        x = b.add(b.const_i64(1), b.const_i64(2), "x")
        b.position_before(x)
        first = b.add(b.const_i64(0), b.const_i64(0), "a")
        second = b.add(first, first, "b")
        assert block.instructions == [first, second, x]

    def test_position_at_start_skips_phis(self, block):
        b = IRBuilder(block)
        phi = b.phi(T.i64, "p")
        b.position_at_start(block)
        x = b.add(b.const_i64(1), b.const_i64(1), "x")
        assert block.instructions == [phi, x]

    def test_position_is_anchored_to_the_instruction(self, block):
        """Whoever else inserts above the anchor, the builder keeps
        emitting right before it."""
        b = IRBuilder(block)
        x = b.add(b.const_i64(1), b.const_i64(2), "x")
        y = b.add(x, x, "y")
        b.position_before(y)
        first = b.add(x, b.const_i64(3), "first")
        phi = block.insert(0, PhiInst(T.i64, "p"))
        other = IRBuilder().position_before(x).add(
            b.const_i64(4), b.const_i64(5), "other")
        second = b.add(first, first, "second")
        assert block.instructions == [phi, other, x, first, second, y]

    def test_position_at_start_of_a_block_of_phis_appends(self, block):
        b = IRBuilder(block)
        phi = b.phi(T.i64, "p")
        b.position_at_start(block)
        x = b.add(phi, phi, "x")
        y = b.add(x, x, "y")
        assert block.instructions == [phi, x, y]

    def test_phi_always_at_top(self, block):
        b = IRBuilder(block)
        x = b.add(b.const_i64(1), b.const_i64(2), "x")
        phi = b.phi(T.i64, "p")
        assert block.instructions == [phi, x]


class TestEmission:
    def test_neg_not_helpers(self, block):
        b = IRBuilder(block)
        n = b.neg(b.const_i64(5), "n")
        assert isinstance(n, BinaryInst) and n.opcode == "sub"
        t = b.not_(b.const_i64(5), "t")
        assert t.opcode == "xor"

    def test_gep_int_indices_coerced(self, block):
        b = IRBuilder(block)
        slot = b.alloca(T.array(4, T.i64), "slot")
        gep = b.gep(slot, [0, 2], "p")
        assert isinstance(gep, GEPInst)
        assert gep.type == T.ptr(T.i64)

    def test_cast_shortcuts(self, block):
        b = IRBuilder(block)
        slot = b.alloca(T.i64)
        assert b.bitcast(slot, T.ptr(T.i8)).opcode == "bitcast"
        v = b.const_i64(1)
        assert b.trunc(v, T.i32).opcode == "trunc"
        assert b.sitofp(v, T.f64).opcode == "sitofp"

    def test_select(self, block):
        b = IRBuilder(block)
        s = b.select(b.const_i1(True), b.const_i64(1), b.const_i64(2), "s")
        assert isinstance(s, SelectInst)

    def test_terminators(self, block):
        func = block.parent
        other = BasicBlock("other", func)
        b = IRBuilder(block)
        b.br(other)
        assert block.is_terminated
        b.position_at_end(other)
        b.ret(b.const_i64(0))
        assert other.is_terminated

    def test_constants(self):
        assert IRBuilder.const_i64(5).type == T.i64
        assert IRBuilder.const_i32(5).type == T.i32
        assert IRBuilder.const_i1(True).value == 1
        assert IRBuilder.const_double(1.5).value == 1.5
        assert IRBuilder.const_null(T.ptr(T.i8)).type == T.ptr(T.i8)

    def test_phi_with_incoming(self, block):
        func = block.parent
        a = BasicBlock("a", func)
        b2 = BasicBlock("b2", func)
        b = IRBuilder(block)
        phi = b.phi(T.i64, "p", [(b.const_i64(1), a), (b.const_i64(2), b2)])
        assert len(phi.incoming) == 2
