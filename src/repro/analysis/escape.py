"""Escape analysis over stack allocations.

An alloca *escapes* when its address (or any pointer derived from it via
``getelementptr`` or a pointer-preserving cast) leaves the function's
direct load/store discipline: it is passed to a call, stored *as a
value* into memory, returned, converted to an integer, or merged
through a phi/select — any route by which code the analysis cannot see
might read or write the allocation.  A non-escaping
alloca is private to the function body: every access is a load or store
through a locally visible pointer, so passes may reason about its memory
as if it were a bundle of local variables.

Two consumers drive the lattice's shape:

* :mod:`repro.transform.scalarize` splits non-escaping *aggregate*
  allocas along their constant GEP access paths into scalar allocas
  that mem2reg can promote — this is what shrinks OSR live sets and
  frame slots (see ``docs/scalarization.md``);
* :mod:`repro.transform.dce` erases stores into non-escaping allocas
  that are never loaded (today an alloca is only erasable when fully
  unused).

The lattice is deliberately two-point (escapes / does not escape) with
a side bit for "was ever loaded"; anything surprising — an unknown user,
a pointer operand in a non-pointer position — collapses to *escapes*,
the conservative top.  Like every analysis, construct this only through
the :class:`~repro.analysis.manager.AnalysisManager` (``escape_info``)
so results are cached per code version and invalidated honestly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    CastInst,
    GEPInst,
    LoadInst,
    StoreInst,
)
from ..ir.values import Value

#: pointer-preserving cast opcodes: the result still addresses the same
#: allocation, so the walk continues through them
_POINTER_CASTS = frozenset({"bitcast"})


class AllocaSummary:
    """What the function does with one alloca's memory."""

    __slots__ = ("alloca", "escapes", "loaded", "stored", "reason")

    def __init__(self, alloca: AllocaInst):
        self.alloca = alloca
        #: address may leave the load/store discipline
        self.escapes = False
        #: some load reads through the alloca (directly or derived)
        self.loaded = False
        #: some store writes through the alloca
        self.stored = False
        #: human-readable escape route (diagnostics/tests), or None
        self.reason: Optional[str] = None

    def _escape(self, reason: str) -> None:
        if not self.escapes:
            self.escapes = True
            self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover
        state = "escapes" if self.escapes else "captured"
        return f"<AllocaSummary %{self.alloca.name} {state}>"


class EscapeInfo:
    """Per-function escape facts for every alloca, at any position.

    Build via ``am.escape_info(func)``; the result is cached per
    ``(function, code_version)`` like every managed analysis.
    """

    def __init__(self, func: Function):
        self.function = func
        #: id(alloca) -> summary (ids are stable while the summary holds
        #: the alloca alive)
        self._summaries: Dict[int, AllocaSummary] = {}
        for block in func.blocks:
            for inst in block.instructions:
                if isinstance(inst, AllocaInst):
                    summary = AllocaSummary(inst)
                    self._walk(inst, summary)
                    self._summaries[id(inst)] = summary

    # -- the walk ---------------------------------------------------------------

    def _walk(self, pointer: Value, summary: AllocaSummary) -> None:
        """Follow every use of a pointer rooted at the alloca; derived
        pointers (GEPs, pointer casts) recurse.  Cycles are impossible:
        derived pointers form a DAG rooted at the alloca."""
        for use in pointer.uses:
            user = use.user
            if isinstance(user, LoadInst):
                summary.loaded = True
            elif isinstance(user, StoreInst):
                if user.value is pointer:
                    # the address itself is written into memory: anyone
                    # who loads it back can alias the allocation
                    summary._escape("address stored as a value")
                else:
                    summary.stored = True
            elif isinstance(user, GEPInst):
                if user.pointer is pointer:
                    self._walk(user, summary)
                else:
                    # a pointer in an index position is malformed enough
                    # to give up on
                    summary._escape("pointer used as a gep index")
            elif isinstance(user, CastInst):
                if user.opcode in _POINTER_CASTS and user.type.is_pointer:
                    self._walk(user, summary)
                else:
                    # ptrtoint and friends launder the address into a
                    # domain the analysis cannot follow
                    summary._escape(f"{user.opcode} cast")
            else:
                # calls (the callee may stash or mutate), returns (the
                # caller sees the address), phis/selects (flow-merging
                # would need a fixpoint — collapse to top), and anything
                # future
                summary._escape(
                    f"used by {type(user).__name__.lower()}"
                )
            if summary.escapes:
                return

    # -- queries ----------------------------------------------------------------

    def summary(self, alloca: AllocaInst) -> Optional[AllocaSummary]:
        return self._summaries.get(id(alloca))

    def escapes(self, alloca: AllocaInst) -> bool:
        """True when the alloca's address may leave the function's direct
        load/store discipline (unknown allocas count as escaping)."""
        summary = self._summaries.get(id(alloca))
        return summary.escapes if summary is not None else True

    def is_loaded(self, alloca: AllocaInst) -> bool:
        """True when any load reads through the alloca (unknown allocas
        conservatively count as loaded)."""
        summary = self._summaries.get(id(alloca))
        return summary.loaded if summary is not None else True

    @property
    def non_escaping(self) -> List[AllocaInst]:
        """Allocas proven private to the function, in program order."""
        return [s.alloca for s in self._summaries.values() if not s.escapes]

    @property
    def allocas(self) -> List[AllocaInst]:
        return [s.alloca for s in self._summaries.values()]

    def __repr__(self) -> str:  # pragma: no cover
        total = len(self._summaries)
        private = len(self.non_escaping)
        return (f"<EscapeInfo @{self.function.name} "
                f"{private}/{total} non-escaping>")


def _same_escape(a: EscapeInfo, b: EscapeInfo) -> bool:
    """Result comparator for the preservation-honesty property test."""
    def key(info: EscapeInfo):
        return {
            id(s.alloca): (s.escapes, s.loaded, s.stored)
            for s in info._summaries.values()
        }

    return key(a) == key(b)
