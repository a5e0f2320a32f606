"""OSR conditions.

An OSR condition decides at run time whether the transition fires at the
instrumented point (paper, Section 2).  A condition object knows how to
emit the IR that computes an ``i1`` at the OSR point:

* :class:`HotCounterCondition` — the classic profile counter of Figure 5:
  a counter initialized to the threshold is decremented at each check and
  the OSR fires when it reaches zero.  The counter is born in SSA form —
  the threshold constant on entry, the decrement at the check, phis where
  the two meet — which is exactly the fused-counter shape the paper
  shows.
* :class:`AlwaysCondition` / :class:`NeverCondition` — constant
  conditions used by the Q2 transition-cost experiments.
* :class:`GuardCondition` — a front-end-supplied emitter, used for
  speculation guards (deoptimize when an assumption fails).
"""

from __future__ import annotations

from typing import Callable

from ..ir import types as T
from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.values import ConstantInt, Value
from ..transform.ssaupdater import SSAUpdater


class OSRCondition:
    """Base class; subclasses emit the i1 condition at the OSR point.

    A condition keeps no per-insertion state, so one object serves any
    number of points."""

    def emit(self, func: Function, builder: IRBuilder) -> Value:
        """Emit condition code with ``builder`` positioned where the check
        happens — the end of the block the point was split off from, with
        the function's final control flow otherwise in place — and return
        the ``i1`` value ("fire the OSR").  State carried from one check
        to the next is the condition's to place (phis in other blocks are
        fine: the builder stays where it was put)."""
        raise NotImplementedError


class HotCounterCondition(OSRCondition):
    """Fire after ``threshold`` executions of the OSR point.

    The counter starts at ``threshold`` and decrements at every check;
    the OSR fires when it hits zero.  A threshold that can never be
    reached within a run gives the *never-firing* configuration of the
    paper's Q1 experiment while still paying the real per-check cost
    (decrement + compare + untaken branch).
    """

    #: a threshold no benchmark will ever reach (Q1 never-firing setup)
    NEVER = 1 << 60

    def __init__(self, threshold: int):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold

    def emit(self, func: Function, builder: IRBuilder) -> Value:
        name = "p.osr"
        start = builder.const_i64(self.threshold)
        decremented = builder.add(start, builder.const_i64(-1), f"{name}1",
                                  flags=("nsw",))
        check = builder.block
        if check is not func.entry:
            # one variable, two definitions — the threshold on entry, the
            # decrement here: the check reads whichever reaches it, through
            # phis where they meet (straight-line code in the entry block)
            counter = SSAUpdater(func, T.i64, name)
            counter.add_definition(func.entry, start)
            counter.add_definition(check, decremented)
            counter.rewrite_uses_of(start)
        return builder.icmp("eq", decremented, builder.const_i64(0), "osr.cond")


class AlwaysCondition(OSRCondition):
    """Constant-true condition: the OSR fires on first reaching the point."""

    def emit(self, func: Function, builder: IRBuilder) -> Value:
        return ConstantInt(T.i1, 1)


class NeverCondition(OSRCondition):
    """Constant-false condition: machinery is present but never fires.

    Unlike :class:`HotCounterCondition` with an unreachable threshold,
    this emits *no* per-check work, so it measures pure code-layout
    effects of the OSR block.
    """

    def emit(self, func: Function, builder: IRBuilder) -> Value:
        return ConstantInt(T.i1, 0)


class GuardCondition(OSRCondition):
    """Front-end-supplied condition (speculation guards / deoptimization).

    ``emitter(func, builder)`` must return an ``i1`` that is true when the
    speculative assumption *fails* and execution must transfer to the
    (typically less optimized) OSR target.
    """

    def __init__(self, emitter: Callable[[Function, IRBuilder], Value]):
        self.emitter = emitter

    def emit(self, func: Function, builder: IRBuilder) -> Value:
        value = self.emitter(func, builder)
        if value.type != T.i1:
            raise TypeError(
                f"guard emitter must produce i1, got {value.type}"
            )
        return value
