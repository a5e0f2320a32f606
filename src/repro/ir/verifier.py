"""IR verifier.

Checks the structural invariants that every well-formed function must
satisfy — the same family of checks LLVM's verifier performs.  The OSR
instrumentation passes promise to keep functions verifier-clean, and the
test suite holds them to it:

* every block has exactly one terminator, at the end;
* phis are grouped at block start and have exactly one incoming entry per
  CFG predecessor (and none for non-predecessors);
* every instruction's operands are defined in a block that dominates the
  use (SSA dominance property), and a phi's incoming values are SSA
  values like any other operand;
* operand types match instruction signatures (enforced structurally at
  construction, re-checked here);
* `ret` types match the function signature.

Cost model.  The pass manager verifies each IR state a pipeline
produces once — after every step that changed the function, or once at
the end if none did — so the verifier is on the compile path, and one
call is linear in the function plus its dominator computation:

* each block's terminator is scanned once, into a successor map that the
  successor check, the predecessor map and the reachability DFS share;
* immediate dominators come from Cooper–Harvey–Kennedy over the DFS
  postorder, and the dominator tree is numbered so that each subtree is
  an interval: "A dominates B" is two integer comparisons, with no
  per-block dominator sets;
* each block in scope is walked once, its instructions once: shape, phi
  order, parent links, phi/predecessor agreement, ``ret`` and
  operand dominance are all checked in that walk.  Problems are
  collected per check and concatenated at the end, so the report lists
  them check by check, each in block order.

Maps are keyed by the blocks and instructions themselves: IR objects
hash by identity.  The verifier computes its own dominators instead of
asking :mod:`repro.analysis`, because those analyses assume verified
input — a malformed CFG must be reported here, not trip an analysis.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .function import BasicBlock, Function, Module
from .instructions import Instruction, PhiInst, RetInst, TerminatorInst
from .values import Argument, Constant

#: operands that are not instructions but are still SSA values
_SSA_LEAVES = (Constant, Argument, BasicBlock)


class VerificationError(Exception):
    """Raised when a function violates an IR invariant."""

    def __init__(self, function: Function, problems: List[str],
                 where: str = ""):
        # ``where`` says where a pipeline produced the state, e.g. "after
        # pass 'constfold' (step 3 of 8)"
        self.function = function
        self.problems = problems
        details = "\n  ".join(problems)
        at = f" {where}" if where else ""
        super().__init__(
            f"function @{function.name} failed verification{at}:\n"
            f"  {details}"
        )


def verify_function(func: Function,
                    blocks: Optional[Iterable[BasicBlock]] = None) -> None:
    """Raise :class:`VerificationError` if the function is malformed.

    With ``blocks``, only those blocks are held to the invariants — their
    shape, their phis against their real predecessors, the operands they
    use against the dominance of the definitions — for a caller that
    knows which blocks it touched (OSR insertion: the split block, the
    ``osr`` block and wherever the counter's phis went)."""
    problems = collect_problems(func, blocks)
    if problems:
        raise VerificationError(func, problems)


def verify_module(module: Module) -> None:
    for func in module.functions:
        if not func.is_declaration:
            verify_function(func)


def collect_problems(func: Function,
                     scope: Optional[Iterable[BasicBlock]] = None
                     ) -> List[str]:
    """Return a list of human-readable invariant violations (empty if OK),
    looking at the blocks in ``scope`` (default: all of them)."""
    if func.is_declaration:
        return []

    blocks = func.blocks
    scope = blocks if scope is None else list(dict.fromkeys(scope))

    succs: Dict[BasicBlock, List[BasicBlock]] = {}
    preds: Dict[BasicBlock, List[BasicBlock]] = {}
    for block in blocks:
        instructions = block.instructions
        last = instructions[-1] if instructions else None
        succs[block] = (last.successors()
                        if isinstance(last, TerminatorInst) else [])
        preds[block] = []
    for block, targets in succs.items():
        for succ in targets:
            incoming = preds.get(succ)
            if incoming is not None and block not in incoming:
                incoming.append(block)
    lo, hi = _dominator_intervals(blocks[0], succs, preds)

    # one list per check, concatenated in this order at the end
    shape: List[str] = []
    branches: List[str] = []
    phis: List[str] = []
    rets: List[str] = []
    uses: List[str] = []
    return_type = func.return_type
    returns_void = return_type.is_void

    # a block's late phis and bad parent links, flushed into ``shape``
    # after its terminator problems
    late_phis: List[str] = []
    bad_parents: List[str] = []
    for block in scope:
        instructions = block.instructions
        name = block.name
        if not instructions:
            shape.append(f"block %{name} is empty")
            continue
        end = len(instructions) - 1
        last = instructions[end]
        if not isinstance(last, TerminatorInst):
            shape.append(f"block %{name} lacks a terminator")
        targets = succs.get(block)
        if targets is None:  # a scope block outside the function
            targets = block.successors()
        for succ in targets:
            if succ not in succs:
                branches.append(
                    f"block %{name} branches to %{succ.name}, "
                    f"which is not in the function"
                )
        if isinstance(last, RetInst):
            value = last.value
            if returns_void:
                if value is not None:
                    rets.append(
                        f"ret with value in void function (block %{name})"
                    )
            elif value is None:
                rets.append(
                    f"ret void in non-void function (block %{name})"
                )
            elif value.type != return_type:
                rets.append(
                    f"ret type {value.type} != function return "
                    f"type {return_type}"
                )

        block_preds = preds.get(block, ())
        pred_set = None
        reachable = block in lo
        if reachable:
            block_lo = lo[block]
        #: instruction -> index in this block, built at the first use of
        #: a same-block definition
        order: Optional[Dict[Instruction, int]] = None
        seen_non_phi = False
        for index, inst in enumerate(instructions):
            if inst.parent is not block:
                bad_parents.append(
                    f"instruction %{inst.name} has wrong parent link"
                )
            if isinstance(inst, PhiInst):
                if seen_non_phi:
                    late_phis.append(
                        f"phi %{inst.name} in %{name} after non-phi"
                    )
                else:
                    if pred_set is None:
                        pred_set = set(block_preds)
                    incoming_blocks = inst._blocks
                    if (len(incoming_blocks) != len(block_preds)
                            or set(incoming_blocks) != pred_set):
                        _phi_agreement(inst, name, block_preds,
                                       incoming_blocks, phis)
                if not reachable:
                    continue
                # a phi's operand must dominate the *end* of the matching
                # incoming block, not the phi itself
                for value, pred in zip(inst._operands, inst._blocks):
                    if not isinstance(value, Instruction):
                        if not isinstance(value, _SSA_LEAVES):
                            uses.append(
                                f"%{inst.name or inst.opcode} uses non-SSA "
                                f"value {value!r}"
                            )
                        continue
                    if pred not in lo:
                        continue
                    def_block = value.parent
                    if def_block is None or def_block not in lo:
                        uses.append(
                            f"phi %{inst.name} uses %{value.name} defined in "
                            f"unreachable/detached code"
                        )
                    elif not lo[def_block] <= lo[pred] < hi[def_block]:
                        uses.append(
                            f"phi %{inst.name} incoming %{value.name} from "
                            f"%{pred.name} not dominated by its definition"
                        )
                continue

            seen_non_phi = True
            if index != end and isinstance(inst, TerminatorInst):
                shape.append(
                    f"block %{name} has a terminator "
                    f"({inst.opcode}) before its end"
                )
            if not reachable:
                continue
            for value in inst._operands:  # read only: no copy
                if not isinstance(value, Instruction):
                    if not isinstance(value, _SSA_LEAVES):
                        uses.append(
                            f"%{inst.name or inst.opcode} uses non-SSA value "
                            f"{value!r}"
                        )
                    continue
                def_block = value.parent
                if def_block is block:  # the common case, tested first
                    if order is None:
                        order = dict(zip(instructions,
                                         range(len(instructions))))
                    # a definition its block does not list counts as
                    # below every use
                    if order.get(value, len(order)) >= order[inst]:
                        uses.append(
                            f"%{inst.name or inst.opcode} uses %{value.name} "
                            f"before its definition in %{name}"
                        )
                elif def_block is None:
                    uses.append(
                        f"%{inst.name or inst.opcode} uses detached "
                        f"instruction %{value.name}"
                    )
                elif def_block not in lo:
                    uses.append(
                        f"%{inst.name or inst.opcode} uses %{value.name} "
                        f"defined in unreachable block %{def_block.name}"
                    )
                elif not lo[def_block] <= block_lo < hi[def_block]:
                    uses.append(
                        f"use of %{value.name} in %{name} not dominated "
                        f"by its definition in %{def_block.name}"
                    )
        if late_phis:
            shape += late_phis
            late_phis.clear()
        if bad_parents:
            shape += bad_parents
            bad_parents.clear()

    return shape + branches + phis + rets + uses


def _phi_agreement(phi: PhiInst, block_name: str,
                   block_preds: List[BasicBlock],
                   incoming_blocks: List[BasicBlock],
                   problems: List[str]) -> None:
    """Report how ``phi``'s incoming blocks differ from its block's
    predecessors: one entry per predecessor, none for anything else."""
    for pred in block_preds:
        count = sum(1 for b in incoming_blocks if b is pred)
        if count == 0:
            problems.append(
                f"phi %{phi.name} in %{block_name} missing incoming "
                f"for predecessor %{pred.name}"
            )
        elif count > 1:
            problems.append(
                f"phi %{phi.name} in %{block_name} has {count} "
                f"entries for predecessor %{pred.name}"
            )
    for b in incoming_blocks:
        if b not in block_preds:
            problems.append(
                f"phi %{phi.name} in %{block_name} has incoming from "
                f"non-predecessor %{b.name}"
            )


def _dominator_intervals(
    entry: BasicBlock,
    succs: Dict[BasicBlock, List[BasicBlock]],
    preds: Dict[BasicBlock, List[BasicBlock]],
) -> Tuple[Dict[BasicBlock, int], Dict[BasicBlock, int]]:
    """``(lo, hi)`` over the blocks reachable from ``entry``: A dominates
    B exactly when ``lo[A] <= lo[B] < hi[A]``.

    Immediate dominators are Cooper–Harvey–Kennedy's iteration over the
    DFS postorder; ``lo`` is then a preorder number on the dominator
    tree and ``hi`` one past the last number in the subtree.  Only
    reachable blocks get numbers: dominance is defined over reachable
    code, so ``block in lo`` is the reachability test."""
    # ``number`` is the postorder number of each reachable block
    number: Dict[BasicBlock, int] = {}
    order: List[BasicBlock] = []
    visiting = {entry}
    stack = [(entry, iter(succs[entry]))]
    while stack:
        block, successors = stack[-1]
        for succ in successors:
            if succ not in visiting and succ in succs:
                visiting.add(succ)
                stack.append((succ, iter(succs[succ])))
                break
        else:
            number[block] = len(order)
            order.append(block)
            stack.pop()

    rpo = order[-2::-1]  # reverse postorder without the entry
    idom: Dict[BasicBlock, BasicBlock] = {entry: entry}
    changed = True
    while changed:
        changed = False
        for block in rpo:
            new = None
            for pred in preds[block]:
                if pred not in idom:
                    continue  # unreachable, or not processed yet
                if new is None:
                    new = pred
                    continue
                other = pred
                while new is not other:
                    while number[new] < number[other]:
                        new = idom[new]
                    while number[other] < number[new]:
                        other = idom[other]
            if new is not None and idom.get(block) is not new:
                idom[block] = new
                changed = True

    children: Dict[BasicBlock, List[BasicBlock]] = {
        block: [] for block in order}
    for block in rpo:
        children[idom[block]].append(block)
    # a stack-driven preorder numbers each subtree contiguously
    lo: Dict[BasicBlock, int] = {}
    preorder: List[BasicBlock] = []
    pending = [entry]
    while pending:
        block = pending.pop()
        lo[block] = len(preorder)
        preorder.append(block)
        pending += children[block]
    hi = {block: lo[block] + 1 for block in preorder}
    for block in reversed(preorder[1:]):
        parent = idom[block]
        if hi[block] > hi[parent]:
            hi[parent] = hi[block]
    return lo, hi
