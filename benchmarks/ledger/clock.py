"""Speed-normalised timing.

The sandbox this ledger has to be steady on is a small shared VM whose
effective CPU speed flips between two regimes a factor of ~1.3 apart,
each lasting seconds (identical code: run-to-run medians of raw wall time
spread 20-35 %, minima and CPU time just the same).  No order statistic
of raw wall time repeats within a tenth there, so the harness times a
fixed pure-Python calibration kernel between ops and reports every timed
region in *reference milliseconds*:

    reported = wall * REFERENCE_UNIT_S / mean(kernel before, kernel after)

The kernel is part of the benchmark, not of ``repro``: no change to the
system under test can move it.  It does depend on the interpreter, so
figures compare only between runs under one Python version (``env`` in
every result file records it).  ``clock_evidence.json`` holds the runs
that justify the scheme: the same samples, raw and normalised, over ten
seeds per workload.  Raw wall medians are kept in every result file
beside the normalised figures.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from .stats import median

#: seconds one kernel unit takes on the reference machine (this
#: sandbox in its fast regime).  A constant: it only fixes the scale.
REFERENCE_UNIT_S = 0.00016

#: kernel units timed between two ops (~1.5 ms), and on each side of a
#: region that lasts seconds (a set-up)
UNITS = 3
WIDE_UNITS = 8

_now = time.perf_counter


def _arithmetic() -> float:
    start = _now()
    acc = 0
    for i in range(4000):
        acc += i * i
    return _now() - start


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def total(self) -> int:
        return self.a + self.b


def _objects() -> float:
    start = _now()
    table = {}
    cells: List[tuple] = []
    for i in range(400):
        cell = _Cell(i, i + 1)
        cells.append((cell, i))
        table[i] = cell
        if table[i >> 1].total() & 1:
            cells.append((cell, str(i)))
    return _now() - start


def _closures():
    frame = [0] * 16

    def load():
        frame[1] = frame[0] + 1
        return 1

    def mix():
        frame[2] = frame[1] * 3 & 0xFFFF
        return 2

    def store():
        frame[0] = frame[2] - frame[1]
        return 0

    return (load, mix, store)


_HANDLERS = _closures()


def _dispatch() -> float:
    start = _now()
    handlers = _HANDLERS
    pc = 0
    for _ in range(3000):
        pc = handlers[pc]()
    return _now() - start


#: The kernel's three parts, ~0.2 ms each: integer arithmetic in a loop,
#: short-lived objects with attribute / dict / list traffic, and calls
#: through a table of closures over a shared frame — the bytecode mixes
#: of generated code, of the compiler passes and of the decoded
#: interpreter.  A slow spell does not slow them alike (allocation
#: suffers most), so one unit is their *geometric* mean: over four
#: minutes of one machine, ops of all three kinds normalised by it held
#: their block medians within 1.3-1.7 %, by any single part 1-5 %.
_PARTS = (_arithmetic, _objects, _dispatch)


def speed(units: int = UNITS) -> float:
    """Seconds per kernel unit right now: the geometric mean over the
    parts of the median of ``units`` timings of each."""
    product = 1.0
    for part in _PARTS:
        product *= median([part() for _ in range(units)])
    return product ** (1.0 / len(_PARTS))


def timed(fn: Callable[[], object], units: int = UNITS
          ) -> Tuple[object, float, float]:
    """Run ``fn`` between two calibrations; returns ``(result, raw
    seconds, reference seconds)``."""
    before = speed(units)
    start = _now()
    result = fn()
    raw = _now() - start
    after = speed(units)
    return result, raw, raw * REFERENCE_UNIT_S / ((before + after) / 2.0)
