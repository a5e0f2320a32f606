"""Scalar replacement of aggregates (SROA) driven by escape analysis.

mem2reg stops at direct-load/store scalars: an aggregate alloca — a
local array or struct — always survives it, because its accesses go
through ``getelementptr``.  Every surviving alloca is costly twice over:

* the decoded/JIT tiers materialize a memory buffer per invocation and
  route every element access through gep+load/store frame slots;
* the alloca's *pointer* is live across any OSR site that can observe
  a later access, so it rides along in every live-variable set and
  continuation signature.

This pass splits a non-escaping aggregate alloca along its constant GEP
access paths: one scalar alloca per accessed byte offset, loads and
stores retargeted to the piece, the gep tree and the original alloca
erased, and the pieces handed to mem2reg for SSA promotion.  State that
was memory-carried becomes ordinary SSA values — dead at any site that
does not actually need it, which is what shrinks OSR state
(``docs/scalarization.md`` has the full split rules and bailouts).

Bailout conditions (the alloca is left untouched):

* the alloca escapes (:class:`~repro.analysis.escape.EscapeInfo` — its
  address reaches a call, return, store-as-value, phi/select or int
  cast);
* the alloca is not in the entry block (hand-written IR only — the
  front ends allocate every local there; elsewhere it gets fresh memory
  on each execution, which entry scalars would not reproduce);
* any derived GEP has a non-constant index (element identity unknown at
  compile time);
* accesses overlap inconsistently or fall outside the allocation, or an
  access moves a whole aggregate.

The pass is registered as ``scalarize`` with an honest
``PreservedAnalyses.cfg_only()`` claim: it rewrites instructions (and
mem2reg adds phis) but never adds, removes or retargets a block.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..analysis.manager import resolve_manager
from ..ir import types as T
from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    GEPInst,
    Instruction,
    LoadInst,
    StoreInst,
)
from ..ir.values import ConstantInt
from ..obs import events as EV
from ..obs.telemetry import ambient as ambient_telemetry
from .mem2reg import promote_memory_to_registers


class _Access(NamedTuple):
    """One load or store, resolved to a byte offset within the alloca."""

    inst: Instruction
    offset: int
    type: T.Type


def _static_gep_offset(gep: GEPInst) -> Optional[int]:
    """Constant byte offset a GEP adds to its base pointer, or None when
    any index is non-constant / malformed (mirrors the runtime's
    ``gep_offset`` over :class:`ConstantInt` indices)."""
    values: List[int] = []
    for index in gep.indices:
        if not isinstance(index, ConstantInt):
            return None
        values.append(index.value)
    pointee = gep.pointer.type.pointee
    offset = values[0] * T.size_of(pointee)
    current: T.Type = pointee
    for value in values[1:]:
        if isinstance(current, T.ArrayType):
            offset += value * T.size_of(current.element)
            current = current.element
        elif isinstance(current, T.StructType):
            if not 0 <= value < len(current.fields):
                return None
            offset += sum(T.size_of(f) for f in current.fields[:value])
            current = current.fields[value]
        else:
            return None
    return offset


def _collect_accesses(alloca: AllocaInst
                      ) -> Optional[Tuple[List[_Access], List[GEPInst]]]:
    """Resolve every access through ``alloca`` to a constant byte offset.

    Returns ``(accesses, geps)`` — the loads/stores with their offsets
    and the derived gep tree — or None when any access cannot be pinned
    to a compile-time offset (the bailout path)."""
    accesses: List[_Access] = []
    geps: List[GEPInst] = []
    stack: List[Tuple[Instruction, int]] = [(alloca, 0)]
    while stack:
        pointer, base = stack.pop()
        for use in pointer.uses:
            user = use.user
            if isinstance(user, LoadInst) and user.pointer is pointer:
                if user.type.is_aggregate:
                    return None
                accesses.append(_Access(user, base, user.type))
            elif (isinstance(user, StoreInst) and user.pointer is pointer
                    and user.value is not pointer):
                if user.value.type.is_aggregate:
                    return None
                accesses.append(_Access(user, base, user.value.type))
            elif isinstance(user, GEPInst) and user.pointer is pointer:
                delta = _static_gep_offset(user)
                if delta is None:
                    return None
                geps.append(user)
                stack.append((user, base + delta))
            else:
                # escape analysis rules the candidate out before any
                # other user kind can appear; be safe regardless
                return None
    return accesses, geps


def _piece_layout(alloca: AllocaInst, accesses: List[_Access]
                  ) -> Optional[Dict[int, T.Type]]:
    """Byte offset -> scalar type for each accessed cell, or None when
    accesses disagree (type punning, partial overlap, out of bounds)."""
    layout: Dict[int, T.Type] = {}
    for access in accesses:
        seen = layout.get(access.offset)
        if seen is None:
            layout[access.offset] = access.type
        elif seen != access.type:
            return None
    total = alloca.count * T.size_of(alloca.allocated_type)
    previous_end = 0
    for offset in sorted(layout):
        size = T.size_of(layout[offset])
        if offset < previous_end or offset + size > total:
            return None
        previous_end = offset + size
    return layout


def scalarize_aggregates(func: Function, am=None, telemetry=None) -> int:
    """Split eligible aggregate allocas; returns the number split.

    Pieces are promoted to SSA via :func:`promote_memory_to_registers`
    restricted to the freshly created scalars, so an intentionally
    unoptimized function is otherwise untouched.  Each split emits a
    ``scalarize.split`` instant (function, alloca, pieces, bytes).
    """
    am = resolve_manager(am)
    tel = telemetry if telemetry is not None else ambient_telemetry()
    escape = am.escape_info(func)
    entry_insts = set(map(id, func.entry.instructions))
    pieces_to_promote: List[AllocaInst] = []
    split = 0

    for alloca in escape.non_escaping:
        if not (alloca.allocated_type.is_aggregate or alloca.count != 1):
            continue  # mem2reg's territory
        if id(alloca) not in entry_insts:
            continue  # a re-executed alloca gets fresh memory each time
        collected = _collect_accesses(alloca)
        if collected is None:
            continue
        accesses, geps = collected
        layout = _piece_layout(alloca, accesses)
        if layout is None:
            continue

        # one scalar alloca per accessed offset, at the original position
        block = alloca.parent
        index = block.instructions.index(alloca)
        pieces: Dict[int, AllocaInst] = {}
        for offset in sorted(layout):
            piece = AllocaInst(
                layout[offset], f"{alloca.name or 'agg'}.{offset}"
            )
            block.insert(index, piece)
            index += 1
            pieces[offset] = piece

        for access in accesses:
            if isinstance(access.inst, LoadInst):
                access.inst.set_operand(0, pieces[access.offset])
            else:
                access.inst.set_operand(1, pieces[access.offset])

        # the gep tree is now dead: erase leaves-first until stable
        remaining = list(geps)
        while remaining:
            progress = False
            for gep in list(remaining):
                if not gep.is_used():
                    gep.erase_from_parent()
                    remaining.remove(gep)
                    progress = True
            if not progress:  # pragma: no cover - collection guarantees
                break
        alloca.erase_from_parent()

        split += 1
        pieces_to_promote.extend(pieces.values())
        tel.event(
            EV.SCALARIZE_SPLIT, function=func.name,
            alloca=alloca.name or "agg", pieces=len(pieces),
            bytes=alloca.count * T.size_of(alloca.allocated_type),
        )

    if pieces_to_promote:
        promote_memory_to_registers(func, only=set(pieces_to_promote), am=am)
    return split
