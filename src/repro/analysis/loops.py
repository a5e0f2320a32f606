"""Natural-loop detection.

Finds back edges (``latch -> header`` where the header dominates the
latch) and materializes the natural loop of each back edge.  OSR point
placement uses this to find "hottest loop" bodies, mirroring the paper's
Q1-Q3 methodology (OSR points in the body of the hottest loops, as the
Jikes RVM places yield points on backward branches).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.function import BasicBlock, Function
from .cfg import predecessor_map, reachable_blocks
from .dominators import DominatorTree


class Loop:
    """A natural loop: header plus the set of blocks that reach the latch
    without passing through the header."""

    def __init__(self, header: BasicBlock, blocks: Set[BasicBlock],
                 latches: List[BasicBlock]):
        self.header = header
        self.blocks = blocks
        self.latches = latches
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks outside the loop targeted by edges from inside it, in
        function layout order (``blocks`` is a set: its iteration order
        depends on object addresses and must not reach a result)."""
        exits = {succ for block in self.blocks
                 for succ in block.successors() if succ not in self.blocks}
        return [b for b in self.header.parent.blocks if b in exits]

    @property
    def body_blocks(self) -> List[BasicBlock]:
        """Loop blocks other than the header, in function layout order."""
        func = self.header.parent
        return [b for b in func.blocks if b in self.blocks and b is not self.header]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Loop header=%{self.header.name} blocks={len(self.blocks)}>"


class LoopInfo:
    """All natural loops of a function, nested into a loop forest."""

    def __init__(self, func: Function,
                 domtree: Optional[DominatorTree] = None):
        self.function = func
        self.loops: List[Loop] = []
        self._compute(DominatorTree(func) if domtree is None else domtree)

    def _compute(self, domtree: DominatorTree) -> None:
        func = self.function
        preds = predecessor_map(func)
        reachable = reachable_blocks(func)

        # group back edges by header so each header yields one loop
        back_edges: Dict[BasicBlock, List[BasicBlock]] = {}
        for block in func.blocks:
            if block not in reachable:
                continue
            for succ in block.successors():
                if succ in reachable and domtree.dominates(succ, block):
                    back_edges.setdefault(succ, []).append(block)

        for header, latches in back_edges.items():
            blocks: Set[BasicBlock] = {header}
            stack = list(latches)
            while stack:
                block = stack.pop()
                if block in blocks:
                    continue
                blocks.add(block)
                stack.extend(p for p in preds[block] if p in reachable)
            self.loops.append(Loop(header, blocks, latches))

        # nest loops: a loop is a child of the smallest loop strictly
        # containing its header
        by_size = sorted(self.loops, key=lambda l: len(l.blocks))
        for loop in by_size:
            for candidate in by_size:
                if candidate is loop:
                    continue
                if (loop.header in candidate.blocks
                        and len(candidate.blocks) > len(loop.blocks)):
                    if (loop.parent is None
                            or len(candidate.blocks) < len(loop.parent.blocks)):
                        loop.parent = candidate
        for loop in self.loops:
            if loop.parent is not None:
                loop.parent.children.append(loop)

    @property
    def top_level(self) -> List[Loop]:
        return [l for l in self.loops if l.parent is None]

    def loop_for(self, block: BasicBlock) -> Optional[Loop]:
        """The innermost loop containing ``block``, if any."""
        best: Optional[Loop] = None
        for loop in self.loops:
            if block in loop.blocks:
                if best is None or len(loop.blocks) < len(best.blocks):
                    best = loop
        return best

    def innermost_loops(self) -> List[Loop]:
        return [l for l in self.loops if not l.children]
