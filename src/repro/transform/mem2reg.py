"""mem2reg — promote alloca'd scalars to SSA registers.

The classic SSA-construction pass: for each promotable alloca (address
never escapes; only whole-value loads and stores), place phi nodes at the
iterated dominance frontier of the store blocks, but only where the
variable is live-in (LLVM's pruned SSA: a temporary defined and consumed
inside one loop body gets no phi at the loop header, so nothing dead is
copied along back edges or counted as OSR live state), then rewrite loads
with reaching definitions along a dominator-tree walk.

This is the pass the paper's "unoptimized" configuration runs — the only
optimization applied before OSR instrumentation in the Q1/Q2 experiments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.cfg import reachable_blocks
from ..analysis.manager import resolve_manager
from ..ir.function import BasicBlock, Function
from ..ir.instructions import AllocaInst, Instruction, LoadInst, PhiInst, StoreInst
from ..ir.values import UndefValue, Value


def is_promotable(alloca: AllocaInst) -> bool:
    """True if every use is a direct load or a store *of a value* to it."""
    if alloca.count != 1:
        return False
    if alloca.allocated_type.is_aggregate:
        return False
    for use in alloca.uses:
        user = use.user
        if isinstance(user, LoadInst):
            continue
        if isinstance(user, StoreInst) and user.pointer is alloca:
            # storing the address itself somewhere else would escape it
            if user.value is alloca:
                return False
            continue
        return False
    return True


def promote_memory_to_registers(func: Function, only=None, am=None) -> int:
    """Run mem2reg on ``func``; returns the number of promoted allocas.

    ``only``, if given, restricts promotion to that set of allocas — used
    by ``scalarize`` to lift the pieces it split an aggregate into without
    touching the rest of the function.  The dominator tree comes from
    ``am`` (an :class:`~repro.analysis.AnalysisManager`, defaulting to
    the process-wide one); promotion rewrites instructions only, so the
    cached tree stays valid.
    """
    allocas = [
        inst
        for inst in func.entry.instructions
        if isinstance(inst, AllocaInst) and is_promotable(inst)
        and (only is None or inst in only)
    ]
    if not allocas:
        return 0

    domtree = resolve_manager(am).dominator_tree(func)
    frontier = domtree.dominance_frontier()
    reachable = reachable_blocks(func)
    preds = domtree.preds

    #: per-alloca phi placements: block -> phi
    placed: Dict[AllocaInst, Dict[BasicBlock, PhiInst]] = {}

    for alloca in allocas:
        def_blocks: Set[BasicBlock] = {
            use.user.parent
            for use in alloca.uses
            if isinstance(use.user, StoreInst) and use.user.parent in reachable
        }
        live_in = _live_in_blocks(alloca, def_blocks, preds)
        phis: Dict[BasicBlock, PhiInst] = {}
        worklist = list(def_blocks)
        visited: Set[BasicBlock] = set(def_blocks)
        while worklist:
            block = worklist.pop()
            for join in frontier.get(block, ()):
                if join in phis or join not in live_in:
                    continue
                phi = PhiInst(alloca.allocated_type, f"{alloca.name}.phi")
                join.insert(0, phi)
                phis[join] = phi
                if join not in visited:
                    visited.add(join)
                    worklist.append(join)
        placed[alloca] = phis

    undef = {a: UndefValue(a.allocated_type) for a in allocas}

    # rewrite via dominator-tree preorder walk carrying reaching defs
    def walk(block: BasicBlock, incoming: Dict[AllocaInst, Value]) -> None:
        current = dict(incoming)
        for alloca in allocas:
            phi = placed[alloca].get(block)
            if phi is not None:
                current[alloca] = phi
        for inst in block.instructions:
            if isinstance(inst, LoadInst) and inst.pointer in current_ptrs:
                alloca = inst.pointer
                inst.replace_all_uses_with(current.get(alloca, undef[alloca]))
                inst.erase_from_parent()
            elif isinstance(inst, StoreInst) and inst.pointer in current_ptrs:
                current[inst.pointer] = inst.value
                inst.erase_from_parent()
        for succ in block.successors():
            for alloca in allocas:
                phi = placed[alloca].get(succ)
                if phi is not None and not phi.has_incoming_for(block):
                    phi.add_incoming(current.get(alloca, undef[alloca]), block)
        for child in domtree.children.get(block, ()):
            walk(child, current)

    current_ptrs = set(allocas)
    walk(func.entry, {})

    # a phi at a join reached along an untraversed edge (unreachable pred)
    # needs no entry; the verifier only requires entries for real preds.
    # phis that ended up with missing incoming (join with pred outside the
    # walk) get undef entries:
    for alloca in allocas:
        for block, phi in placed[alloca].items():
            for pred in preds[block]:
                if pred in reachable and not phi.has_incoming_for(pred):
                    phi.add_incoming(undef[alloca], pred)

    for alloca in allocas:
        alloca.erase_from_parent()
    return len(allocas)


def _live_in_blocks(alloca: AllocaInst, def_blocks: Set[BasicBlock],
                    preds: Dict[BasicBlock, List[BasicBlock]]
                    ) -> Set[BasicBlock]:
    """Blocks on whose entry the variable holds a value that is read:
    those that load it before storing it, and, walking back over
    predecessors, every block that does not store to it."""
    worklist: List[BasicBlock] = []
    for block in {use.user.parent for use in alloca.uses
                  if isinstance(use.user, LoadInst)}:
        for inst in block:  # the first access decides
            if isinstance(inst, StoreInst) and inst.pointer is alloca:
                break
            if isinstance(inst, LoadInst) and inst.pointer is alloca:
                worklist.append(block)
                break
    live_in: Set[BasicBlock] = set()
    while worklist:
        block = worklist.pop()
        if block in live_in:
            continue
        live_in.add(block)
        worklist.extend(p for p in preds[block] if p not in def_blocks)
    return live_in
