"""Ablations of OSRKit's two design choices (DESIGN.md Section 5).

Same function, same OSR location at the loop header, one row per design:

* **OSRKit vs McOSR** (paper Section 3): a resolved OSRKit point passes
  live values as arguments to a dedicated continuation function; the
  McOSR baseline spills them to a pool of globals and re-enters the
  function through a flag-checking entrypoint that stays in it.  Both
  measured never-firing and firing at iteration 1000.
* **stub vs inline generation** for open OSR ("the reason for having a
  stub ... is to minimize the extra code injected into f"): the ``|IR|``
  column is the instrumented function's size under each design.

Every row must return the uninstrumented checksum, or the run raises.
"""

from __future__ import annotations

from functools import partial
from typing import List, NamedTuple

from ..core import (
    HotCounterCondition,
    insert_mcosr_point,
    insert_open_osr_point,
    insert_resolved_osr_point,
)
from ..ir import parse_module
from ..vm import ExecutionEngine
from .q1 import _never_firing_generator
from .sites import loop_osr_location
from .stats import time_run

HOT = """
define i64 @hot(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %loop ]
  %x = mul i64 %i, 3
  %y = xor i64 %x, %acc
  %acc2 = add i64 %y, %i
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, %n
  br i1 %c, label %loop, label %done
done:
  ret i64 %acc2
}
"""

FIRING_THRESHOLD = 1000
NEVER = HotCounterCondition.NEVER
_open = partial(insert_open_osr_point, generator=_never_firing_generator)

#: label -> (the insertion call, hotness threshold)
CONFIGURATIONS = {
    "native": (None, NEVER),
    "osrkit never": (insert_resolved_osr_point, NEVER),
    "mcosr never": (insert_mcosr_point, NEVER),
    "osrkit firing": (insert_resolved_osr_point, FIRING_THRESHOLD),
    "mcosr firing": (insert_mcosr_point, FIRING_THRESHOLD),
    "open, stub": (partial(_open, use_stub=True), NEVER),
    "open, inline": (partial(_open, use_stub=False), NEVER),
}


class AblationRow(NamedTuple):
    configuration: str
    ir_size: int        #: |IR| of the (instrumented) function
    checksum: int       #: result of ``hot(n)``, equal in every row
    seconds: float      #: best warm trial
    vs_native: float    #: seconds / the native row's seconds


def run_ablation(n: int = 200_000, trials: int = 3) -> List[AblationRow]:
    rows: List[AblationRow] = []
    for label, (insert, threshold) in CONFIGURATIONS.items():
        module = parse_module(HOT)
        engine = ExecutionEngine(module, tier="jit")
        func = module.get_function("hot")
        if insert is not None:
            insert(func, loop_osr_location(func),
                   HotCounterCondition(threshold), engine=engine)
        checksum = engine.run("hot", n)
        if rows and checksum != rows[0].checksum:
            raise AssertionError(
                f"{label}: hot({n}) = {checksum}, native {rows[0].checksum}")
        seconds = time_run(lambda: engine.run("hot", n), trials=trials,
                           warmup=0).best
        rows.append(AblationRow(
            label, func.instruction_count, checksum, seconds,
            seconds / rows[0].seconds if rows else 1.0))
    return rows


def format_ablation(rows: List[AblationRow]) -> str:
    lines = [
        "Ablation: OSRKit vs McOSR (resolved), stub vs inline (open)",
        f"{'configuration':<16} {'|IR|':>5} {'time':>11} {'vs native':>10}",
    ]
    lines += [f"{row.configuration:<16} {row.ir_size:>5} "
              f"{row.seconds * 1000:>8.2f} ms {row.vs_native:>9.2f}x"
              for row in rows]
    return "\n".join(lines)
