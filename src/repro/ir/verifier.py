"""IR verifier.

Checks the structural invariants that every well-formed function must
satisfy — the same family of checks LLVM's verifier performs.  The OSR
instrumentation passes promise to keep functions verifier-clean, and the
test suite holds them to it:

* every block has exactly one terminator, at the end;
* phis are grouped at block start and have exactly one incoming entry per
  CFG predecessor (and none for non-predecessors);
* every instruction's operands are defined in a block that dominates the
  use (SSA dominance property);
* operand types match instruction signatures (enforced structurally at
  construction, re-checked here);
* `ret` types match the function signature.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from .function import BasicBlock, Function, Module
from .instructions import GuardInst, Instruction, PhiInst, RetInst, TerminatorInst
from .types import i1
from .values import Argument, Constant, Value


class VerificationError(Exception):
    """Raised when a function violates an IR invariant."""

    def __init__(self, function: Function, problems: List[str]):
        self.function = function
        self.problems = problems
        details = "\n  ".join(problems)
        super().__init__(
            f"function @{function.name} failed verification:\n  {details}"
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
    problems: List[str] = []
    if func.is_declaration:
        return problems

    blocks = func.blocks
    block_set = set(id(b) for b in blocks)
    scope = blocks if scope is None else list(dict.fromkeys(scope))

    # -- block-level structure ---------------------------------------------
    for block in scope:
        instructions = block.instructions
        if not instructions:
            problems.append(f"block %{block.name} is empty")
            continue
        terminator = instructions[-1]
        if not terminator.is_terminator:
            problems.append(f"block %{block.name} lacks a terminator")
        for inst in instructions[:-1]:
            if inst.is_terminator:
                problems.append(
                    f"block %{block.name} has a terminator "
                    f"({inst.opcode}) before its end"
                )
        seen_non_phi = False
        for inst in instructions:
            if inst.is_phi:
                if seen_non_phi:
                    problems.append(
                        f"phi %{inst.name} in %{block.name} after non-phi"
                    )
            else:
                seen_non_phi = True
        for inst in instructions:
            if inst.parent is not block:
                problems.append(
                    f"instruction %{inst.name} has wrong parent link"
                )

    # -- successor sanity -----------------------------------------------------
    for block in scope:
        for succ in block.successors():
            if id(succ) not in block_set:
                problems.append(
                    f"block %{block.name} branches to %{succ.name}, "
                    f"which is not in the function"
                )

    # -- phi / predecessor agreement -------------------------------------------
    preds: Dict[int, List[BasicBlock]] = {id(b): [] for b in blocks}
    for block in blocks:
        for succ in block.successors():
            if id(succ) in preds and block not in preds[id(succ)]:
                preds[id(succ)].append(block)

    for block in scope:
        block_preds = preds.get(id(block), ())
        for phi in block.phis:
            incoming_blocks = phi.incoming_blocks
            for pred in block_preds:
                count = sum(1 for b in incoming_blocks if b is pred)
                if count == 0:
                    problems.append(
                        f"phi %{phi.name} in %{block.name} missing incoming "
                        f"for predecessor %{pred.name}"
                    )
                elif count > 1:
                    problems.append(
                        f"phi %{phi.name} in %{block.name} has {count} "
                        f"entries for predecessor %{pred.name}"
                    )
            for b in incoming_blocks:
                if b not in block_preds:
                    problems.append(
                        f"phi %{phi.name} in %{block.name} has incoming from "
                        f"non-predecessor %{b.name}"
                    )

    # -- speculation guards ---------------------------------------------------
    for block in scope:
        for inst in block.instructions:
            if isinstance(inst, GuardInst):
                if inst.condition.type != i1:
                    problems.append(
                        f"guard {inst.guard_id!r} in %{block.name} has "
                        f"non-i1 condition of type {inst.condition.type}"
                    )
                if not inst.guard_id:
                    problems.append(
                        f"guard in %{block.name} has an empty guard id"
                    )

    # -- return types --------------------------------------------------------------
    for block in scope:
        term = block.terminator
        if isinstance(term, RetInst):
            if func.return_type.is_void:
                if term.value is not None:
                    problems.append(
                        f"ret with value in void function (block %{block.name})"
                    )
            else:
                if term.value is None:
                    problems.append(
                        f"ret void in non-void function (block %{block.name})"
                    )
                elif term.value.type != func.return_type:
                    problems.append(
                        f"ret type {term.value.type} != function return "
                        f"type {func.return_type}"
                    )

    # -- SSA dominance --------------------------------------------------------------
    problems.extend(_check_dominance(func, preds, scope))
    return problems


def _check_dominance(
    func: Function, preds: Dict[int, List[BasicBlock]],
    scope: List[BasicBlock],
) -> List[str]:
    """Check that each use in ``scope`` is dominated by its definition.

    Implemented directly (Cooper-Harvey-Kennedy immediate dominators over
    the function's own block list) so the verifier does not depend on
    :mod:`repro.analysis`, which itself assumes verified input.
    """
    problems: List[str] = []
    blocks = func.blocks
    if not blocks:
        return problems
    entry = blocks[0]

    # reachable blocks only: dominance is defined over reachable code.
    # ``number`` is the postorder number of each of them.
    number: Dict[int, int] = {}
    order: List[BasicBlock] = []
    visiting = {id(entry)}
    stack = [(entry, iter(entry.successors()))]
    while stack:
        block, successors = stack[-1]
        for succ in successors:
            if id(succ) not in visiting and id(succ) in preds:
                visiting.add(id(succ))
                stack.append((succ, iter(succ.successors())))
                break
        else:
            number[id(block)] = len(order)
            order.append(block)
            stack.pop()
    reachable = number

    idom: Dict[int, BasicBlock] = {id(entry): entry}
    changed = True
    while changed:
        changed = False
        for block in reversed(order[:-1]):
            new = None
            for pred in preds[id(block)]:
                if id(pred) not in idom:
                    continue  # unreachable, or not processed yet
                if new is None:
                    new = pred
                    continue
                other = pred
                while new is not other:
                    while number[id(new)] < number[id(other)]:
                        new = idom[id(new)]
                    while number[id(other)] < number[id(new)]:
                        other = idom[id(other)]
            if new is not None and idom.get(id(block)) is not new:
                idom[id(block)] = new
                changed = True

    #: block -> ids of the blocks dominating it, filled on demand down
    #: the dominator tree
    dom: Dict[int, Set[int]] = {id(entry): {id(entry)}}

    def dominators(block: BasicBlock) -> Set[int]:
        chain = []
        while id(block) not in dom:
            chain.append(block)
            block = idom[id(block)]
        found = dom[id(block)]
        for block in reversed(chain):
            found = dom[id(block)] = found | {id(block)}
        return found

    def defined_block(value: Value) -> BasicBlock:
        assert isinstance(value, Instruction)
        return value.parent

    for block in scope:
        if id(block) not in reachable:
            continue
        #: instruction -> index in this block, built at the first use of
        #: a same-block definition
        order: Optional[Dict[int, int]] = None
        for inst in block.instructions:
            operands = inst.operands
            if isinstance(inst, PhiInst):
                # a phi's operand must dominate the *end* of the matching
                # incoming block, not the phi itself
                for value, pred in inst.incoming:
                    if not isinstance(value, Instruction):
                        continue
                    if id(pred) not in reachable:
                        continue
                    def_block = defined_block(value)
                    if def_block is None or id(def_block) not in reachable:
                        problems.append(
                            f"phi %{inst.name} uses %{value.name} defined in "
                            f"unreachable/detached code"
                        )
                        continue
                    if id(def_block) not in dominators(pred):
                        problems.append(
                            f"phi %{inst.name} incoming %{value.name} from "
                            f"%{pred.name} not dominated by its definition"
                        )
                continue
            for value in operands:
                if not isinstance(value, Instruction):
                    if isinstance(value, (Constant, Argument, BasicBlock)):
                        continue
                    problems.append(
                        f"%{inst.name or inst.opcode} uses non-SSA value "
                        f"{value!r}"
                    )
                    continue
                def_block = defined_block(value)
                if def_block is None:
                    problems.append(
                        f"%{inst.name or inst.opcode} uses detached "
                        f"instruction %{value.name}"
                    )
                    continue
                if id(def_block) not in reachable:
                    problems.append(
                        f"%{inst.name or inst.opcode} uses %{value.name} "
                        f"defined in unreachable block %{def_block.name}"
                    )
                    continue
                if def_block is block:
                    if order is None:
                        order = {id(i): n for n, i
                                 in enumerate(block.instructions)}
                    # a definition its block does not list counts as
                    # below every use
                    if order.get(id(value), len(order)) >= order[id(inst)]:
                        problems.append(
                            f"%{inst.name or inst.opcode} uses %{value.name} "
                            f"before its definition in %{block.name}"
                        )
                elif id(def_block) not in dominators(block):
                    problems.append(
                        f"use of %{value.name} in %{block.name} not dominated "
                        f"by its definition in %{def_block.name}"
                    )
    return problems
