"""Figure 8 — intrusiveness of a never-firing OSR point in lowered code.

The paper shows that the x86-64 code for ``isord_from`` differs from the
uninstrumented version by two hot-path instructions, with the firing
sequence out of line.  Our back-end lowers IR to Python bytecode, so the
same property is measured there: the bytecode-operation count of the
JIT's compiled artifact for a counted loop, without and with one
never-firing resolved OSR point.  (Operations of the code objects, not
lines of source: the JIT compiles an AST and has no source text.)
"""

from __future__ import annotations

import dis
from typing import List, NamedTuple

from ..core import HotCounterCondition, insert_resolved_osr_point
from ..ir import parse_module
from ..vm import ExecutionEngine
from ..vm.jit import compile_function
from .sites import loop_osr_location

SUM_LOOP = """
define i64 @hot(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %loop ]
  %acc2 = add i64 %acc, %i
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, %n
  br i1 %c, label %loop, label %done
done:
  ret i64 %acc2
}
"""


class Fig8Row(NamedTuple):
    workload: str
    native_ops: int          #: artifact op count, uninstrumented
    osr_ops: int             #: artifact op count with a never-firing point
    delta_ops: int           #: counter update + check + firing block


def _code_ops(code) -> int:
    """Bytecode instruction count of ``code`` and every nested code object."""
    total = sum(1 for _ in dis.get_instructions(code))
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            total += _code_ops(const)
    return total


def _lowered_ops(instrument: bool) -> int:
    module = parse_module(SUM_LOOP)
    engine = ExecutionEngine(module, tier="jit")
    func = module.get_function("hot")
    if instrument:
        insert_resolved_osr_point(
            func, loop_osr_location(func),
            HotCounterCondition(HotCounterCondition.NEVER), engine=engine,
        )
    return _code_ops(compile_function(func, engine).__code__)


def run_fig8() -> List[Fig8Row]:
    """Artifact growth from one never-firing resolved OSR point."""
    native_ops = _lowered_ops(instrument=False)
    osr_ops = _lowered_ops(instrument=True)
    return [Fig8Row("sum-loop", native_ops, osr_ops, osr_ops - native_ops)]


def format_fig8(rows: List[Fig8Row]) -> str:
    lines = [
        "Figure 8: bytecode operations of the JIT's artifact",
        f"{'workload':<14} {'native ops':>11} {'osr ops':>9} {'delta':>7}",
    ]
    lines += [f"{row.workload:<14} {row.native_ops:>11} {row.osr_ops:>9} "
              f"{row.delta_ops:>7}" for row in rows]
    return "\n".join(lines)
