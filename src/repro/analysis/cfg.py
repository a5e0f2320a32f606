"""Control-flow graph utilities.

Thin, allocation-light helpers over the block/terminator structure:
predecessor maps, traversal orders, reachability.  All analyses in this
package take a snapshot view — they do not auto-invalidate, matching how
LLVM passes recompute analyses after mutation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.function import BasicBlock, Function


def successors(block: BasicBlock) -> List[BasicBlock]:
    return block.successors()


def predecessor_map(func: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """Map each block to its CFG predecessors, in block order."""
    preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in func.blocks}
    for block in func.blocks:
        for succ in block.successors():
            if succ in preds and block not in preds[succ]:
                preds[succ].append(block)
    return preds


def reachable_blocks(func: Function,
                     start: Optional[BasicBlock] = None) -> Set[BasicBlock]:
    """Blocks reachable from ``start`` (the entry block by default)."""
    seen: Set[BasicBlock] = set()
    stack = [start if start is not None else func.entry]
    while stack:
        block = stack.pop()
        if block in seen:
            continue
        seen.add(block)
        stack.extend(block.successors())
    return seen


def depth_first_order(func: Function) -> List[BasicBlock]:
    """Preorder DFS from the entry block (reachable blocks only)."""
    seen: Set[BasicBlock] = set()
    order: List[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        if block in seen:
            return
        seen.add(block)
        order.append(block)
        for succ in block.successors():
            visit(succ)

    visit(func.entry)
    return order


def post_order(func: Function) -> List[BasicBlock]:
    """Postorder DFS from the entry block (iterative, recursion-safe)."""
    seen: Set[BasicBlock] = set()
    order: List[BasicBlock] = []
    stack: List[tuple] = [(func.entry, iter(func.entry.successors()))]
    seen.add(func.entry)
    while stack:
        block, it = stack[-1]
        advanced = False
        for succ in it:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(succ.successors())))
                advanced = True
                break
        if not advanced:
            order.append(block)
            stack.pop()
    return order


def reverse_post_order(func: Function) -> List[BasicBlock]:
    """RPO — the canonical forward-dataflow iteration order."""
    return list(reversed(post_order(func)))


def remove_unreachable_blocks(func: Function) -> List[BasicBlock]:
    """Erase blocks not reachable from entry; returns the removed blocks.

    Phi nodes in surviving blocks are cleaned of incoming entries from the
    removed blocks, which is exactly the cleanup OSR continuation generation
    relies on after redirecting the entry point (paper, Figure 7).
    """
    reachable = reachable_blocks(func)
    removed = [b for b in func.blocks if b not in reachable]
    if not removed:
        return []
    removed_set = set(removed)
    # first detach instructions so cross-references between dead blocks
    # do not keep uses alive
    for block in removed:
        for inst in list(block.instructions):
            inst.drop_all_references()
    for block in func.blocks:
        if block in removed_set:
            continue
        for phi in block.phis:
            for dead in removed:
                if phi.has_incoming_for(dead):
                    phi.remove_incoming(dead)
    for block in removed:
        for inst in list(block.instructions):
            block.remove(inst)
        func.remove_block(block)
    return removed


def split_edge(pred: BasicBlock, succ: BasicBlock) -> BasicBlock:
    """Insert a fresh block on the CFG edge ``pred -> succ``.

    Returns the new block.  Phi nodes in ``succ`` are retargeted so their
    incoming entries for ``pred`` now name the new block.  This is the
    standard critical-edge split used when inserting OSR firing blocks.
    """
    from ..ir.builder import IRBuilder

    func = pred.parent
    new_block = BasicBlock(f"{pred.name}.{succ.name}.split")
    func.add_block(new_block, after=pred)
    IRBuilder(new_block).br(succ)
    pred.terminator.replace_successor(succ, new_block)
    for phi in succ.phis:
        phi.replace_incoming_block(pred, new_block)
    return new_block
