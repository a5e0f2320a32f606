"""SSA reconstruction for a single variable (LLVM's ``SSAUpdater``).

Used by OSR continuation generation: redirecting the entry point to the
landing block ``L'`` adds a CFG edge that can break the dominance of
values defined in blocks that remain reachable (loop-carried code).  For
each such value the updater is seeded with the original definition plus
the replacement definition in ``osr.entry``, and rewrites every use,
inserting phi nodes at the iterated dominance frontier where the two
definitions meet.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis.dominators import DominatorTree
from ..analysis.manager import resolve_manager
from ..ir.function import BasicBlock, Function
from ..ir.instructions import Instruction, PhiInst
from ..ir.types import Type
from ..ir.values import UndefValue, Value


class SSAUpdater:
    """Rewrites uses of one variable given multiple definitions.

    Typical protocol::

        updater = SSAUpdater(func, value_type, name_hint)
        updater.add_definition(block_a, value_a)
        updater.add_definition(block_b, value_b)
        updater.rewrite_uses_of(old_value)   # or rewrite_use per use
    """

    def __init__(self, func: Function, type: Type, name_hint: str = "ssa",
                 am=None):
        self.function = func
        self.type = type
        self.name_hint = name_hint
        self._am = am
        self._defs: Dict[BasicBlock, Value] = {}
        self._domtree: Optional[DominatorTree] = None
        self._placed_phis: Dict[BasicBlock, PhiInst] = {}
        self._sealed = False

    def add_definition(self, block: BasicBlock, value: Value) -> None:
        if self._sealed:
            raise ValueError("cannot add definitions after phi placement")
        self._defs[block] = value

    # -- phi placement ---------------------------------------------------------

    def _seal(self) -> None:
        if self._sealed:
            return
        self._sealed = True
        # phi insertion by this updater never changes the CFG, so the
        # manager's cached tree — and the frontier and predecessor map it
        # carries — survives a sequence of updater rounds (continuation
        # generation runs one per repaired value)
        self._domtree = resolve_manager(self._am).dominator_tree(self.function)
        frontier = self._domtree.dominance_frontier()

        # iterated dominance frontier of the def blocks
        worklist = [b for b in self._defs if self._domtree.is_reachable(b)]
        visited: Set[BasicBlock] = set(worklist)
        idf: Set[BasicBlock] = set()
        while worklist:
            block = worklist.pop()
            for join in frontier.get(block, ()):
                if join not in idf:
                    idf.add(join)
                    if join not in visited:
                        visited.add(join)
                        worklist.append(join)

        for join in idf:
            phi = PhiInst(self.type, f"{self.name_hint}.phi")
            join.insert(0, phi)
            self._placed_phis[join] = phi

        # fill in phi incomings (may recursively resolve through other phis)
        for join, phi in self._placed_phis.items():
            for pred in self._domtree.preds[join]:
                phi.add_incoming(self.value_at_end_of(pred), pred)

    # -- queries -------------------------------------------------------------------

    def value_at_end_of(self, block: BasicBlock) -> Value:
        """Reaching value at the end of ``block``."""
        self._seal()
        node: Optional[BasicBlock] = block
        while node is not None:
            if node in self._defs:
                return self._defs[node]
            if node in self._placed_phis:
                return self._placed_phis[node]
            node = self._domtree.immediate_dominator(node)
        return UndefValue(self.type)

    def value_at_entry_of(self, block: BasicBlock) -> Value:
        """Reaching value at the entry of ``block`` (its phi if placed)."""
        self._seal()
        if block in self._placed_phis:
            return self._placed_phis[block]
        idom = self._domtree.immediate_dominator(block)
        if idom is None:
            return UndefValue(self.type)
        return self.value_at_end_of(idom)

    # -- rewriting ------------------------------------------------------------------

    def rewrite_uses_of(self, old: Value,
                        skip: Tuple[Instruction, ...] = ()) -> int:
        """Rewrite every use of ``old`` to the correct reaching value.

        ``skip`` lists instructions whose uses must be preserved (e.g. a
        definition that feeds the updater itself).  Returns the number of
        rewritten uses.
        """
        self._seal()
        count = 0
        for use in old.uses:
            user = use.user
            if not isinstance(user, Instruction) or user.parent is None:
                continue
            if user in skip or user in self._placed_phis.values():
                continue
            # NOTE: a self-referential phi (x = phi [x, latch], ...) is a
            # legitimate user of itself; its incoming edge is resolved
            # through value_at_end_of like any other phi use.
            if isinstance(user, PhiInst):
                # phi uses live at the end of the incoming block
                incoming_block = user.incoming_blocks[use.index]
                replacement = self.value_at_end_of(incoming_block)
            else:
                replacement = self._value_before(user)
            if replacement is not old:
                user.set_operand(use.index, replacement)
                count += 1
        self._prune_trivial_phis()
        return count

    def _value_before(self, inst: Instruction) -> Value:
        """Reaching value immediately before ``inst``."""
        block = inst.parent
        # a def in the same block above the use wins
        if block in self._defs:
            def_value = self._defs[block]
            if isinstance(def_value, Instruction) and def_value.parent is block:
                instructions = block.instructions
                if instructions.index(def_value) < instructions.index(inst):
                    return def_value
            else:
                # a non-instruction def (argument/constant) or one hoisted
                # from another block is treated as reaching the block top
                return def_value
        if block in self._placed_phis:
            return self._placed_phis[block]
        idom = self._domtree.immediate_dominator(block)
        if idom is None:
            if block in self._defs:
                return self._defs[block]
            return UndefValue(self.type)
        return self.value_at_end_of(idom)

    def _prune_trivial_phis(self) -> None:
        """Remove placed phis that are unused or trivially redundant."""
        changed = True
        while changed:
            changed = False
            for block, phi in list(self._placed_phis.items()):
                if phi.parent is None:
                    del self._placed_phis[block]
                    continue
                if not phi.is_used():
                    phi.erase_from_parent()
                    del self._placed_phis[block]
                    changed = True
