"""Verifier tests: each structural invariant has a violation test."""

import pytest

from repro.ir import parse_module
from repro.ir import types as T
from repro.ir.builder import IRBuilder
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import BinaryInst, BranchInst, PhiInst, RetInst
from repro.ir.values import ConstantInt, Value
from repro.ir.verifier import (
    VerificationError,
    collect_problems,
    verify_function,
    verify_module,
)

from ..conftest import build_branchy, build_sum_loop


def c64(v):
    return ConstantInt(T.i64, v)


COUNTED_LOOP = """
define i64 @f(i64 %n) {
entry:
  br label %l
l:
  %i = phi i64 [ 0, %entry ], [ %j, %l ]
  %j = add i64 %i, 1
  %c = icmp slt i64 %j, %n
  br i1 %c, label %l, label %x
x:
  ret i64 %j
}
"""


class TestCleanFunctions:
    def test_sum_loop_verifies(self, module):
        verify_function(build_sum_loop(module))

    def test_branchy_verifies(self, module):
        verify_function(build_branchy(module))

    def test_declaration_verifies(self):
        func = Function(T.function(T.i64, T.i64), "d")
        verify_function(func)

    def test_verify_module(self, module):
        build_sum_loop(module)
        build_branchy(module)
        verify_module(module)


class TestBlockStructure:
    def test_empty_block_reported(self, module):
        func = build_branchy(module)
        BasicBlock("empty", func)
        problems = collect_problems(func)
        assert any("empty" in p for p in problems)

    def test_missing_terminator(self, module):
        func = Function(T.function(T.i64), "f")
        module.add_function(func)
        block = BasicBlock("entry", func)
        IRBuilder(block).add(c64(1), c64(2), "x")
        problems = collect_problems(func)
        assert any("lacks a terminator" in p for p in problems)

    def test_phi_after_non_phi(self, module):
        func = build_sum_loop(module)
        loop = func.get_block("loop")
        # brute-force move a phi below a computation
        phi = loop.phis[0]
        loop.remove(phi)
        loop.insert(2, phi)
        problems = collect_problems(func)
        assert any("after non-phi" in p for p in problems)

    def test_branch_to_foreign_block(self, module):
        func = Function(T.function(T.i64), "f")
        module.add_function(func)
        entry = BasicBlock("entry", func)
        foreign = BasicBlock("foreign")  # never added to func
        entry.append(BranchInst(foreign))
        problems = collect_problems(func)
        assert any("not in the function" in p for p in problems)


class TestPhiAgreement:
    def test_missing_incoming_for_predecessor(self, module):
        func = build_sum_loop(module)
        loop = func.get_block("loop")
        phi = loop.phis[0]
        phi.remove_incoming(func.get_block("entry"))
        problems = collect_problems(func)
        assert any("missing incoming" in p for p in problems)

    def test_incoming_from_non_predecessor(self, module):
        func = build_branchy(module)
        join = func.get_block("join")
        stray = BasicBlock("stray", func)
        IRBuilder(stray).ret(c64(0))
        join.phis[0].add_incoming(c64(9), stray)
        problems = collect_problems(func)
        assert any("non-predecessor" in p for p in problems)

    def test_duplicate_incoming_entries(self, module):
        func = build_branchy(module)
        join = func.get_block("join")
        left = func.get_block("left")
        join.phis[0].add_incoming(c64(1), left)
        problems = collect_problems(func)
        assert any("2 entries" in p for p in problems)


class TestReturnTypes:
    def test_ret_type_mismatch(self, module):
        func = Function(T.function(T.i64), "f")
        module.add_function(func)
        block = BasicBlock("entry", func)
        block.append(RetInst(ConstantInt(T.i32, 0)))
        problems = collect_problems(func)
        assert any("ret type" in p for p in problems)

    def test_ret_void_in_value_function(self, module):
        func = Function(T.function(T.i64), "f")
        module.add_function(func)
        BasicBlock("entry", func).append(RetInst(None))
        problems = collect_problems(func)
        assert any("ret void in non-void" in p for p in problems)

    def test_ret_value_in_void_function(self, module):
        func = Function(T.function(T.void), "f")
        module.add_function(func)
        BasicBlock("entry", func).append(RetInst(c64(0)))
        problems = collect_problems(func)
        assert any("ret with value" in p for p in problems)


class TestDominance:
    def test_use_before_def_same_block(self, module):
        func = Function(T.function(T.i64), "f")
        module.add_function(func)
        block = BasicBlock("entry", func)
        b = IRBuilder(block)
        x = BinaryInst("add", c64(1), c64(2), "x")
        y = block.append(BinaryInst("add", c64(3), c64(4), "y"))
        block.append(x)
        x.set_operand(0, y)  # fine: y before x
        block.append(RetInst(x))
        verify_function(func)  # ordering is legal
        # now swap to create use-before-def
        block.remove(y)
        block.insert(1, y)
        block.remove(x)
        block.insert(0, x)
        problems = collect_problems(func)
        assert any("before its definition" in p for p in problems)

    def test_use_not_dominated_across_blocks(self, module):
        func = build_branchy(module)
        left = func.get_block("left")
        right = func.get_block("right")
        doubled = left.instructions[0]
        bumped = right.instructions[0]
        # make 'right' use a value computed only on the 'left' path
        bumped.set_operand(0, doubled)
        problems = collect_problems(func)
        assert any("not dominated" in p for p in problems)

    def test_phi_incoming_must_dominate_edge(self, module):
        func = build_branchy(module)
        join = func.get_block("join")
        left = func.get_block("left")
        right = func.get_block("right")
        phi = join.phis[0]
        bumped = right.instructions[0]
        # claim that 'bumped' (defined in right) flows in from 'left'
        phi.remove_incoming(left)
        phi.add_incoming(bumped, left)
        problems = collect_problems(func)
        assert any("not dominated" in p for p in problems)

    def test_unreachable_code_is_ignored_for_dominance(self, module):
        func = build_branchy(module)
        dead = BasicBlock("dead", func)
        b = IRBuilder(dead)
        x = b.add(c64(1), c64(1), "deadx")
        b.ret(x)
        verify_function(func)  # unreachable self-contained block is fine

    def test_phi_incoming_must_be_an_ssa_value(self):
        func = parse_module(COUNTED_LOOP).get_function("f")
        entry, loop = func.get_block("entry"), func.get_block("l")
        phi = loop.phis[0]
        phi.remove_incoming(entry)
        phi.add_incoming(Value(T.i64, "ghost"), entry)
        assert collect_problems(func) == [
            "%i uses non-SSA value <Value %ghost: i64>"]

    def test_operand_must_be_an_ssa_value(self):
        func = parse_module(COUNTED_LOOP).get_function("f")
        add = func.get_block("l").instructions[1]
        add.set_operand(1, Value(T.i64, "ghost"))
        assert collect_problems(func) == [
            "%j uses non-SSA value <Value %ghost: i64>"]

    def test_use_of_unreachable_def(self, module):
        func = build_branchy(module)
        dead = BasicBlock("dead", func)
        b = IRBuilder(dead)
        x = b.add(c64(1), c64(1), "deadx")
        b.ret(x)
        join = func.get_block("join")
        ret = join.instructions[-1]
        ret.set_operand(0, x)
        problems = collect_problems(func)
        assert any("unreachable" in p for p in problems)


class TestErrorReporting:
    def test_verification_error_lists_problems(self, module):
        func = Function(T.function(T.i64), "broken")
        module.add_function(func)
        BasicBlock("entry", func)
        with pytest.raises(VerificationError) as err:
            verify_function(func)
        assert "broken" in str(err.value)
        assert err.value.problems


class TestScopedVerification:
    """``verify_function(func, blocks)``: the blocks a caller touched are
    held to every invariant, the rest of the function is not looked at."""

    def test_problem_inside_the_scope_is_found(self, module):
        func = build_branchy(module)
        left, right = func.get_block("left"), func.get_block("right")
        right.instructions[0].set_operand(0, left.instructions[0])
        with pytest.raises(VerificationError, match="not dominated"):
            verify_function(func, [right])

    def test_problem_outside_the_scope_is_not(self, module):
        func = build_branchy(module)
        left, right = func.get_block("left"), func.get_block("right")
        right.instructions[0].set_operand(0, left.instructions[0])
        verify_function(func, [left, func.get_block("join")])
        assert collect_problems(func)  # the whole-function check sees it

    def test_phi_of_a_scoped_block_is_checked_against_real_predecessors(
            self, module):
        func = build_branchy(module)
        join = func.get_block("join")
        join.phis[0].remove_incoming(func.get_block("left"))
        problems = collect_problems(func, [join])
        assert any("missing incoming" in p for p in problems)
        assert not collect_problems(func, [func.entry])

    def test_phi_incoming_dominance_is_checked_in_scope(self, module):
        func = build_branchy(module)
        join = func.get_block("join")
        left, right = func.get_block("left"), func.get_block("right")
        phi = join.phis[0]
        phi.remove_incoming(left)
        phi.add_incoming(right.instructions[0], left)
        assert any("not dominated" in p
                   for p in collect_problems(func, [join]))

    def test_a_block_listed_twice_is_checked_once(self, module):
        func = build_branchy(module)
        join = func.get_block("join")
        join.phis[0].remove_incoming(func.get_block("left"))
        assert len(collect_problems(func, [join, join])) == 1

    def test_scoped_and_whole_agree_on_every_block(self, module):
        func = build_sum_loop(module)
        loop = func.get_block("loop")
        acc2, i2 = loop.instructions[2], loop.instructions[3]
        acc2.set_operand(1, i2)  # use before definition in %loop
        whole = collect_problems(func)
        assert whole
        assert sum((collect_problems(func, [b]) for b in func.blocks),
                   []) == whole

    def test_deep_dominator_chain(self, module):
        """A thousand blocks in a row: the dominator tree is built and
        numbered without recursion."""
        func = Function(T.function(T.i64, T.i64), "chain", ["x"])
        module.add_function(func)
        blocks = [BasicBlock(f"b{i}", func) for i in range(1000)]
        value = func.args[0]
        for block, following in zip(blocks, blocks[1:]):
            b = IRBuilder(block)
            value = b.add(value, c64(1), f"v{block.name}")
            b.br(following)
        IRBuilder(blocks[-1]).ret(value)
        verify_function(func)
        verify_function(func, [blocks[-1]])
