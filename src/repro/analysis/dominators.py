"""Dominator tree and dominance frontiers.

Implements the Cooper-Harvey-Kennedy "A Simple, Fast Dominance Algorithm":
iterative IDom computation over reverse postorder, plus the standard
dominance-frontier construction used by mem2reg's phi placement.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.function import BasicBlock, Function
from .cfg import post_order, predecessor_map


class DominatorTree:
    """Immediate-dominator tree for the reachable CFG of a function."""

    def __init__(self, func: Function):
        self.function = func
        #: immediate dominator of each reachable block (entry maps to itself)
        self.idom: Dict[BasicBlock, BasicBlock] = {}
        #: children in the dominator tree
        self.children: Dict[BasicBlock, List[BasicBlock]] = {}
        #: CFG predecessors of every block, as the tree was built from them
        self.preds: Dict[BasicBlock, List[BasicBlock]] = {}
        #: postorder index of each reachable block
        self._po_index: Dict[BasicBlock, int] = {}
        self._frontier: Optional[Dict[BasicBlock, Set[BasicBlock]]] = None
        self._compute()

    def _compute(self) -> None:
        func = self.function
        order = post_order(func)
        self._po_index = {b: i for i, b in enumerate(order)}
        rpo = list(reversed(order))
        preds = self.preds = predecessor_map(func)
        entry = func.entry

        idom: Dict[BasicBlock, Optional[BasicBlock]] = {b: None for b in rpo}
        idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for block in rpo:
                if block is entry:
                    continue
                new_idom: Optional[BasicBlock] = None
                for pred in preds[block]:
                    if pred not in self._po_index:
                        continue  # unreachable predecessor
                    if idom[pred] is None:
                        continue
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(idom, new_idom, pred)
                if new_idom is not None and idom[block] is not new_idom:
                    idom[block] = new_idom
                    changed = True

        self.idom = {b: d for b, d in idom.items() if d is not None}
        self.children = {b: [] for b in self.idom}
        for block, dom in self.idom.items():
            if block is not dom:
                self.children[dom].append(block)

    def _intersect(
        self,
        idom: Dict[BasicBlock, Optional[BasicBlock]],
        a: BasicBlock,
        b: BasicBlock,
    ) -> BasicBlock:
        index = self._po_index
        while a is not b:
            while index[a] < index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] < index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    # -- queries ----------------------------------------------------------------

    def is_reachable(self, block: BasicBlock) -> bool:
        return block in self.idom

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does ``a`` dominate ``b``?  (Reflexive: a block dominates itself.)"""
        if a not in self.idom or b not in self.idom:
            return False
        entry = self.function.entry
        node = b
        while True:
            if node is a:
                return True
            if node is entry:
                return False
            node = self.idom[node]

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        if block is self.function.entry:
            return None
        return self.idom.get(block)

    def dominance_frontier(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """DF(b) per Cooper-Harvey-Kennedy: for each join point, walk each
        predecessor's dominator chain up to the join's idom.  Computed on
        first request and kept: the tree is a snapshot of one CFG, so a
        run of phi placements (which leave the CFG alone) shares it."""
        if self._frontier is not None:
            return self._frontier
        frontier: Dict[BasicBlock, Set[BasicBlock]] = {
            b: set() for b in self.idom
        }
        for block in self.idom:
            block_preds = [p for p in self.preds[block] if p in self.idom]
            if len(block_preds) < 2:
                continue
            for pred in block_preds:
                runner = pred
                while runner is not self.idom[block]:
                    frontier[runner].add(block)
                    runner = self.idom[runner]
        self._frontier = frontier
        return frontier
