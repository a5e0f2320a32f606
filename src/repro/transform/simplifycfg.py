"""CFG simplification.

The subset of LLVM's simplifycfg the pipeline needs:

* fold conditional branches on constant conditions;
* merge a block into its unique predecessor when that predecessor has a
  single successor (straight-line merge);
* remove trivial phis (single incoming value, or all-same incoming);
* drop unreachable blocks.
"""

from __future__ import annotations

from ..analysis.cfg import predecessor_map, remove_unreachable_blocks
from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.instructions import BranchInst, CondBranchInst
from ..ir.values import ConstantInt


def _fold_constant_branches(func: Function) -> bool:
    changed = False
    for block in func.blocks:
        term = block.terminator
        if isinstance(term, CondBranchInst) and isinstance(
            term.condition, ConstantInt
        ):
            taken = term.true_target if term.condition.value else term.false_target
            not_taken = term.false_target if term.condition.value else term.true_target
            if not_taken is not taken:
                for phi in not_taken.phis:
                    if phi.has_incoming_for(block):
                        phi.remove_incoming(block)
            term.erase_from_parent()
            IRBuilder(block).br(taken)
            changed = True
    return changed


def _remove_trivial_phis(func: Function) -> bool:
    changed = False
    for block in func.blocks:
        for phi in block.phis:
            values = [v for v, _ in phi.incoming]
            distinct = []
            for v in values:
                if v is phi:
                    continue
                if all(v is not d for d in distinct):
                    distinct.append(v)
            if len(distinct) == 1:
                phi.replace_all_uses_with(distinct[0])
                phi.erase_from_parent()
                changed = True
    return changed


def _merge_block_into_predecessor(func: Function) -> bool:
    """Merge B into P when P's only successor is B and B's only
    predecessor is P (and B has no phis left)."""
    preds = predecessor_map(func)
    for block in func.blocks:
        if block is func.entry:
            continue
        block_preds = preds[block]
        if len(block_preds) != 1:
            continue
        pred = block_preds[0]
        term = pred.terminator
        if not isinstance(term, BranchInst) or term.target is not block:
            continue
        if block.phis:
            continue
        if pred is block:
            continue
        # splice: drop pred's branch, move B's instructions into P
        term.erase_from_parent()
        for inst in block.instructions:
            block.remove(inst)
            pred.append(inst)
        # successors' phis must now name pred instead of block
        for succ in pred.successors():
            for phi in succ.phis:
                phi.replace_incoming_block(block, pred)
        block.replace_all_uses_with(pred)
        func.remove_block(block)
        return True
    return False


def simplify_cfg(func: Function) -> int:
    """Run all simplifications to a fixed point; returns iteration count."""
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = False
        changed |= _fold_constant_branches(func)
        changed |= bool(remove_unreachable_blocks(func))
        changed |= _remove_trivial_phis(func)
        while _merge_block_into_predecessor(func):
            changed = True
    return iterations
