"""Dead-code elimination.

Three flavours:

* :func:`eliminate_dead_code` — mark-and-sweep from the side-effecting
  instructions; unused chains and dead phi cycles alike go.
* :func:`eliminate_dead_stores` — escape-driven: a store into a
  non-escaping alloca that is never loaded observes nothing, so the
  store (and the alloca's whole access web) is dead even though stores
  "have side effects" to the generic worklist.
* :func:`eliminate_dead_blocks` — remove CFG-unreachable blocks (re-export
  of the CFG utility; listed here because the OSR continuation generator
  depends on it to drop the original entry region, paper Figure 7).
"""

from __future__ import annotations

from ..analysis.cfg import remove_unreachable_blocks
from ..analysis.manager import resolve_manager
from ..ir.function import Function
from ..ir.instructions import Instruction, StoreInst


def eliminate_dead_code(func: Function) -> int:
    """Remove every instruction no root needs; returns the number removed.

    Roots are the instructions that must stay even when unused
    (side-effecting or void: stores, calls, guards, terminators); what
    they do not transitively use is dead.  Marking from the roots,
    rather than peeling unused values, also removes phi webs that only
    feed each other — a loop-carried value nobody reads.
    """
    live = set()
    worklist = [
        inst for inst in func.instructions()
        if inst.has_side_effects() or inst.type.is_void
    ]
    live.update(map(id, worklist))
    while worklist:
        for op in worklist.pop().operands:
            if isinstance(op, Instruction) and id(op) not in live:
                live.add(id(op))
                worklist.append(op)
    dead = [inst for inst in func.instructions() if id(inst) not in live]
    for inst in dead:
        inst.erase_from_parent()
    return len(dead)


def eliminate_dead_stores(func: Function, am=None) -> int:
    """Erase stores into non-escaping, never-loaded allocas; returns the
    number of instructions removed (stores plus the dead access web).

    The classic worklist treats every store as side-effecting, so an
    alloca is only erasable once *fully* unused.  With
    :class:`~repro.analysis.escape.EscapeInfo` (pulled through ``am``,
    defaulting to the process-wide manager) the bar drops: if the
    alloca's address never escapes and no load ever reads through it,
    nothing can observe the stored bytes — the stores go, and the
    derived geps/casts and the alloca itself follow as ordinary dead
    code.
    """
    escape = resolve_manager(am).escape_info(func)
    removed = 0
    for alloca in escape.non_escaping:
        if escape.is_loaded(alloca):
            continue
        # collect the access web rooted at the alloca: escape analysis
        # already proved it contains only loads/stores/geps/casts, and
        # with no loads it is stores + address computation only
        web = [alloca]
        frontier = [alloca]
        while frontier:
            pointer = frontier.pop()
            for use in pointer.uses:
                user = use.user
                if user in web:
                    continue
                web.append(user)
                if not isinstance(user, StoreInst):
                    frontier.append(user)
        # stores first, then the address web outside-in until stable
        # (an outer gep only becomes unused once its derived geps go)
        for inst in web:
            if isinstance(inst, StoreInst) and inst.parent is not None:
                inst.erase_from_parent()
                removed += 1
        progress = True
        while progress:
            progress = False
            for inst in web:
                if inst.parent is not None and not inst.is_used():
                    inst.erase_from_parent()
                    removed += 1
                    progress = True
    return removed


def eliminate_dead_blocks(func: Function) -> int:
    """Remove unreachable blocks; returns the number removed."""
    return len(remove_unreachable_blocks(func))


def run_dce(func: Function) -> int:
    """Blocks first (may kill uses), then instructions."""
    removed = eliminate_dead_blocks(func)
    removed += eliminate_dead_code(func)
    return removed
