"""Natural-loop detection tests."""

import pytest

from repro.analysis.loops import LoopInfo
from repro.ir import parse_function

from ..conftest import build_branchy, build_sum_loop

NESTED = """
define i64 @nested(i64 %n) {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %i2, %latch ]
  br label %inner
inner:
  %j = phi i64 [ 0, %outer ], [ %j2, %inner ]
  %j2 = add i64 %j, 1
  %jc = icmp slt i64 %j2, 10
  br i1 %jc, label %inner, label %latch
latch:
  %i2 = add i64 %i, 1
  %ic = icmp slt i64 %i2, %n
  br i1 %ic, label %outer, label %exit
exit:
  ret i64 %i
}
"""


class TestDetection:
    def test_self_loop(self, module):
        func = build_sum_loop(module)
        info = LoopInfo(func)
        assert len(info.loops) == 1
        loop = info.loops[0]
        assert loop.header is func.get_block("loop")
        assert loop.blocks == {func.get_block("loop")}
        assert loop.latches == [func.get_block("loop")]

    def test_no_loops_in_diamond(self, module):
        func = build_branchy(module)
        assert LoopInfo(func).loops == []

    def test_nested_loops(self):
        func = parse_function(NESTED)
        info = LoopInfo(func)
        assert len(info.loops) == 2
        outer = next(l for l in info.loops
                     if l.header is func.get_block("outer"))
        inner = next(l for l in info.loops
                     if l.header is func.get_block("inner"))
        assert inner.parent is outer
        assert inner in outer.children
        assert outer.depth == 1
        assert inner.depth == 2
        assert func.get_block("latch") in outer.blocks
        assert func.get_block("latch") not in inner.blocks

    def test_top_level_and_innermost(self):
        func = parse_function(NESTED)
        info = LoopInfo(func)
        assert [l.header.name for l in info.top_level] == ["outer"]
        assert [l.header.name for l in info.innermost_loops()] == ["inner"]

    def test_loop_for_innermost_lookup(self):
        func = parse_function(NESTED)
        info = LoopInfo(func)
        inner_block = func.get_block("inner")
        latch = func.get_block("latch")
        assert info.loop_for(inner_block).header.name == "inner"
        assert info.loop_for(latch).header.name == "outer"
        assert info.loop_for(func.get_block("exit")) is None

    def test_exit_blocks(self):
        func = parse_function(NESTED)
        info = LoopInfo(func)
        outer = next(l for l in info.loops
                     if l.header is func.get_block("outer"))
        assert outer.exit_blocks() == [func.get_block("exit")]

    def test_exit_blocks_come_in_layout_order(self):
        """Codegen reads this list: its order must follow the function,
        never the loop's block *set* (ordered by object address)."""
        exits = [f"x{k}" for k in range(6)]
        lines = ["define i64 @fan(i64 %n) {", "entry:", "  br label %b0"]
        for k, name in enumerate(exits):
            nxt = f"b{k + 1}" if k + 1 < len(exits) else "b0"
            lines += [f"b{k}:", f"  %c{k} = icmp eq i64 %n, {k}",
                      f"  br i1 %c{k}, label %{name}, label %{nxt}"]
        for name in reversed(exits):  # laid out last exit first
            lines += [f"{name}:", "  ret i64 0"]
        func = parse_function("\n".join(lines + ["}"]))
        (loop,) = LoopInfo(func).loops
        assert [b.name for b in loop.exit_blocks()] == exits[::-1]

    def test_a_given_dominator_tree_is_used_not_rebuilt(self, monkeypatch):
        from repro.analysis import loops
        from repro.analysis.dominators import DominatorTree

        func = parse_function(NESTED)
        domtree = DominatorTree(func)
        monkeypatch.setattr(loops, "DominatorTree", None)  # must not be built
        assert len(LoopInfo(func, domtree).loops) == 2

    def test_multi_latch_single_loop(self):
        func = parse_function("""
define i64 @multi(i64 %n) {
entry:
  br label %head
head:
  %i = phi i64 [ 0, %entry ], [ %a, %p1 ], [ %b, %p2 ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %p1, label %check
p1:
  %a = add i64 %i, 1
  br label %head
check:
  %c2 = icmp slt i64 %i, 100
  br i1 %c2, label %p2, label %out
p2:
  %b = add i64 %i, 2
  br label %head
out:
  ret i64 %i
}
""")
        info = LoopInfo(func)
        assert len(info.loops) == 1
        assert len(info.loops[0].latches) == 2


def test_body_blocks_excludes_header():
    func = parse_function(NESTED)
    info = LoopInfo(func)
    outer = next(l for l in info.loops
                 if l.header is func.get_block("outer"))
    names = [b.name for b in outer.body_blocks]
    assert "outer" not in names
    assert "inner" in names and "latch" in names
