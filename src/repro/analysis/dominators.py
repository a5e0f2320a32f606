"""Dominator tree, dominance frontiers and the range facts dominance
carries.

Implements the Cooper-Harvey-Kennedy "A Simple, Fast Dominance Algorithm":
iterative IDom computation over reverse postorder, plus the standard
dominance-frontier construction used by mem2reg's phi placement.
:class:`RangeFacts` walks the same tree to collect what dominating signed
compares prove about integer values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.function import BasicBlock, Function
from ..ir.instructions import CondBranchInst, ICmpInst, Instruction, PhiInst
from ..ir.types import IntType
from ..ir.values import ConstantInt, Value
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


Interval = Tuple[int, int]
Facts = Dict[Value, Interval]

#: signed predicate -> ``(swap, strict)``: ``icmp pred a, b`` holding
#: means ``x < y`` (``strict``) or ``x <= y``, where ``(x, y)`` is
#: ``(b, a)`` if ``swap`` else ``(a, b)``; failing, it means the converse
_SIGNED = {"slt": (False, True), "sle": (False, False),
           "sgt": (True, True), "sge": (True, False)}


def _meet(facts: Facts, value: Value, lo: int, hi: int) -> None:
    """Narrow ``facts[value]`` to ``[lo, hi]`` (both facts hold)."""
    old = facts.get(value)
    if old is not None:
        lo, hi = max(lo, old[0]), min(hi, old[1])
    facts[value] = (lo, hi)


class RangeFacts:
    """Signed intervals that dominating compares prove, per block.

    An edge proves facts when it leaves a ``br`` on ``icmp slt/sle/sgt/
    sge`` (operands at least ``i2``) and its target has the branching
    block as its only predecessor: on the edge where ``x < y`` holds,
    ``x <= hi(y) - 1`` and ``y >= lo(x) + 1``, where ``lo``/``hi`` are a
    constant's own value, the facts already holding at the branch, else
    the width's bounds (``<=`` drops the ``1``).  The facts hold in every
    block the target dominates: no path reaches those blocks without the
    edge, and none redefines ``x`` or ``y`` after it.

    Threading: a ``br`` on an ``i1`` phi of its own block is true only
    when control came from an incoming block whose value is not constant
    ``false``.  Its true edge gets the facts holding in *every* such
    block (with the compare it passes in, if it passes one), kept for
    values defined above the branching block, which the phi's edge does
    not redefine.  This is C's ``i < n && ...`` loop test.

    :meth:`interval` answers for one value in one block; values nothing
    constrains answer ``None``."""

    def __init__(self, func: Function,
                 domtree: Optional[DominatorTree] = None):
        domtree = domtree if domtree is not None else DominatorTree(func)
        #: block -> the facts holding in it (blocks share unchanged dicts)
        self.facts: Dict[BasicBlock, Facts] = {}
        self._compute(domtree)

    def interval(self, value: Value, block: BasicBlock) -> Optional[Interval]:
        facts = self.facts.get(block)
        return None if facts is None else facts.get(value)

    def _compute(self, tree: DominatorTree) -> None:
        facts = self.facts
        rank = tree._po_index
        # reverse postorder: a block's idom and its forward-edge
        # predecessors are done before it
        for block in sorted(rank, key=rank.__getitem__, reverse=True):
            idom = tree.idom[block]
            if idom is block:
                facts[block] = {}
                continue
            held = facts[idom]
            if tree.preds[block] == [idom]:
                edge = self._edge(idom, block, tree)
                if edge:
                    held = dict(held)
                    for value, (lo, hi) in edge.items():
                        _meet(held, value, lo, hi)
            facts[block] = held

    def _edge(self, source: BasicBlock, target: BasicBlock,
              tree: DominatorTree) -> Facts:
        """What taking ``source -> target`` proves."""
        term = source.terminator
        if (not isinstance(term, CondBranchInst)
                or term.true_target is term.false_target):
            return {}
        taken = term.true_target is target
        cond = term.condition
        if isinstance(cond, PhiInst):
            return self._threaded(cond, source, tree) if taken else {}
        return self._compare(cond, taken, self.facts[source])

    def _compare(self, cond: Value, taken: bool, held: Facts) -> Facts:
        """What ``cond`` being ``taken`` proves, over the facts ``held``
        where it is branched on."""
        if not isinstance(cond, ICmpInst) or cond.predicate not in _SIGNED:
            return {}
        ty = cond.lhs.type
        if not isinstance(ty, IntType) or ty.bits < 2:
            return {}
        swap, strict = _SIGNED[cond.predicate]
        x, y = (cond.rhs, cond.lhs) if swap else (cond.lhs, cond.rhs)
        if not taken:
            x, y, strict = y, x, not strict
        half = 1 << (ty.bits - 1)

        def bounds(value: Value) -> Interval:
            if isinstance(value, ConstantInt):
                return value.value, value.value
            return held.get(value, (-half, half - 1))

        step = 1 if strict else 0
        (x_lo, x_hi), (y_lo, y_hi) = bounds(x), bounds(y)
        out: Facts = {}
        if not isinstance(x, ConstantInt):
            _meet(out, x, x_lo, min(x_hi, y_hi - step))
        if not isinstance(y, ConstantInt):
            _meet(out, y, max(y_lo, x_lo + step), y_hi)
        return out

    def _threaded(self, phi: PhiInst, source: BasicBlock,
                  tree: DominatorTree) -> Facts:
        if phi.parent is not source:
            return {}
        joined: Optional[Facts] = None
        for value, pred in phi.incoming:
            if isinstance(value, ConstantInt) and not value.value:
                continue  # arriving this way, the branch is not taken
            if not tree.is_reachable(pred):
                continue
            held = self.facts.get(pred)
            if held is None:  # a back edge: its facts are not known yet
                return {}
            arrived = dict(held)
            for fact, (lo, hi) in self._compare(value, True, held).items():
                _meet(arrived, fact, lo, hi)
            if joined is None:
                joined = {fact: interval for fact, interval in arrived.items()
                          if not isinstance(fact, Instruction)
                          or tree.strictly_dominates(fact.parent, source)}
            else:
                joined = {fact: (min(lo, arrived[fact][0]),
                                 max(hi, arrived[fact][1]))
                          for fact, (lo, hi) in joined.items()
                          if fact in arrived}
        return joined or {}
