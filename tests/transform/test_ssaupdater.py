"""SSAUpdater tests — single-variable SSA repair."""

import pytest

from repro.ir import parse_function, verify_function
from repro.ir import types as T
from repro.ir.builder import IRBuilder
from repro.ir.function import BasicBlock
from repro.ir.instructions import PhiInst
from repro.ir.values import ConstantInt, UndefValue
from repro.transform.ssaupdater import SSAUpdater


def test_two_defs_meet_at_join():
    func = parse_function("""
define i64 @f(i64 %n) {
entry:
  %c = icmp sgt i64 %n, 0
  br i1 %c, label %a, label %b
a:
  %x = add i64 %n, 1
  br label %join
b:
  br label %join
join:
  %use = mul i64 %x, 2
  ret i64 %use
}
""")
    # the original is invalid SSA (x does not dominate join); repair it by
    # declaring a second definition on the %b path
    x = func.get_block("a").instructions[0]
    updater = SSAUpdater(func, T.i64, "x")
    updater.add_definition(func.get_block("a"), x)
    updater.add_definition(func.get_block("b"), ConstantInt(T.i64, -1))
    updater.rewrite_uses_of(x)
    verify_function(func)
    join = func.get_block("join")
    assert len(join.phis) == 1
    phi = join.phis[0]
    assert phi.has_incoming_for(func.get_block("a"))
    assert phi.has_incoming_for(func.get_block("b"))


def test_loop_new_entry_edge():
    """The OSR continuation scenario: an extra edge into a loop block."""
    func = parse_function("""
define i64 @f(i64 %n, i64 %seed) {
entry:
  %c = icmp sgt i64 %n, 0
  br i1 %c, label %preheader, label %body
preheader:
  %init = add i64 %n, 100
  br label %body
body:
  %x2 = add i64 %init, 1
  %done = icmp sgt i64 %x2, 200
  br i1 %done, label %out, label %body
out:
  ret i64 %x2
}
""")
    # 'init' does not dominate 'body' (entry can jump straight there);
    # provide the alternative definition '%seed' for the entry edge
    init = func.get_block("preheader").instructions[0]
    updater = SSAUpdater(func, T.i64, "init")
    updater.add_definition(func.get_block("preheader"), init)
    updater.add_definition(func.get_block("entry"), func.args[1])
    updater.rewrite_uses_of(init)
    verify_function(func)
    body = func.get_block("body")
    assert len(body.phis) == 1


def test_use_in_def_block_after_def_untouched():
    func = parse_function("""
define i64 @f(i64 %n) {
entry:
  %x = add i64 %n, 1
  %y = mul i64 %x, 2
  ret i64 %y
}
""")
    x = func.entry.instructions[0]
    y = func.entry.instructions[1]
    updater = SSAUpdater(func, T.i64, "x")
    updater.add_definition(func.entry, x)
    updater.rewrite_uses_of(x)
    verify_function(func)
    assert y.get_operand(0) is x  # same-block use after def keeps x


def test_value_at_queries():
    func = parse_function("""
define i64 @f(i64 %n) {
entry:
  %c = icmp sgt i64 %n, 0
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  ret i64 0
}
""")
    updater = SSAUpdater(func, T.i64, "v")
    va = ConstantInt(T.i64, 1)
    vb = ConstantInt(T.i64, 2)
    updater.add_definition(func.get_block("a"), va)
    updater.add_definition(func.get_block("b"), vb)
    assert updater.value_at_end_of(func.get_block("a")) is va
    join_value = updater.value_at_entry_of(func.get_block("join"))
    assert isinstance(join_value, PhiInst)
    assert updater.value_at_end_of(func.entry).__class__ is UndefValue


def test_unused_placed_phis_pruned():
    func = parse_function("""
define i64 @f(i64 %n) {
entry:
  %c = icmp sgt i64 %n, 0
  br i1 %c, label %a, label %b
a:
  %x = add i64 %n, 1
  ret i64 %x
b:
  br label %join
join:
  ret i64 0
}
""")
    x = func.get_block("a").instructions[0]
    updater = SSAUpdater(func, T.i64, "x")
    updater.add_definition(func.get_block("a"), x)
    updater.add_definition(func.get_block("b"), ConstantInt(T.i64, 5))
    # x has no uses outside its own block: no phi should survive
    updater.rewrite_uses_of(x)
    verify_function(func)
    assert func.get_block("join").phis == []


def test_self_referential_phi_rewritten():
    """Regression (found by hypothesis): a phi of the form
    ``x = phi [init, pre], [x, latch]`` (source-level ``x = x`` in a loop)
    must have its *self*-incoming redirected through the updater too."""
    func = parse_function("""
define i64 @f(i64 %n, i64 %alt) {
entry:
  %c = icmp sgt i64 %n, 0
  br i1 %c, label %pre, label %head.cont
pre:
  br label %head
head:
  %x = phi i64 [ %n, %pre ], [ %x, %latch ]
  br label %head.cont
head.cont:
  %done = icmp sgt i64 %x, 100
  br i1 %done, label %out, label %latch
latch:
  br label %head
out:
  ret i64 %x
}
""")
    # the 'entry -> head.cont' edge skips %x's definition: repair with an
    # alternative definition, mirroring the OSR continuation scenario
    head = func.get_block("head")
    x = head.phis[0]
    updater = SSAUpdater(func, T.i64, "x")
    updater.add_definition(head, x)
    updater.add_definition(func.get_block("entry"), func.args[1])
    updater.rewrite_uses_of(x)
    verify_function(func)
    # the self-incoming must now reference the repair phi, not %x itself
    latch_incoming = x.incoming_value_for(func.get_block("latch"))
    assert latch_incoming is not x


def test_phi_placement_does_not_move_a_positioned_builder():
    """Phis go in at the top of a join block; a builder already placed
    further down that block keeps emitting where it was put (it used to
    track an index, and landed one slot early per phi)."""
    func = parse_function("""
define i64 @f(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %i2 = add i64 %i, 1
  %again = icmp slt i64 %i2, %n
  br i1 %again, label %loop, label %out
out:
  ret i64 %i2
}
""")
    loop = func.get_block("loop")
    builder = IRBuilder().position_before(loop.terminator)
    stepped = builder.add(ConstantInt(T.i64, 7), ConstantInt(T.i64, -1), "c1")
    updater = SSAUpdater(func, T.i64, "c")
    updater.add_definition(func.entry, stepped.lhs)
    updater.add_definition(loop, stepped)
    updater.rewrite_uses_of(stepped.lhs)        # places %c.phi above %i
    fired = builder.icmp("eq", stepped, ConstantInt(T.i64, 0), "fired")
    assert [i.name for i in loop.instructions[:-1]] == [
        "c.phi", "i", "i2", "again", "c1", "fired"]
    assert fired.lhs is stepped and stepped.lhs is loop.instructions[0]
    verify_function(func)


def test_updaters_of_one_function_share_the_frontier():
    """The dominance frontier and predecessor map live on the
    process-wide manager's cached tree: a run of repairs computes them
    once."""
    from repro.analysis import default_manager

    func = parse_function("""
define i64 @f(i64 %n) {
entry:
  %c = icmp sgt i64 %n, 0
  br i1 %c, label %a, label %b
a:
  %x = add i64 %n, 1
  %y = add i64 %n, 2
  br label %join
b:
  br label %join
join:
  %use = mul i64 %x, %y
  ret i64 %use
}
""")
    manager = default_manager()
    tree = manager.dominator_tree(func)
    assert tree.dominance_frontier() is tree.dominance_frontier()
    for value in func.get_block("a").instructions[:2]:
        updater = SSAUpdater(func, T.i64, value.name)
        updater.add_definition(func.get_block("a"), value)
        updater.add_definition(func.get_block("b"), ConstantInt(T.i64, 0))
        updater.rewrite_uses_of(value)
    assert manager.dominator_tree(func) is tree
    assert len(func.get_block("join").phis) == 2
    verify_function(func)
