"""Order statistics the ledger reports: quantiles, geometric mean, the
highest percentile that still has ten samples beyond it, and the
run-to-run spread the regression bounds are judged against."""

from __future__ import annotations

import math
import statistics
from statistics import median  # noqa: F401  (re-exported)
from typing import Iterable, List, Sequence, Tuple

#: percentiles a tail may be reported at, ascending
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: samples that must lie beyond a percentile for it to be reported
TAIL_MIN_BEYOND = 10


def quantile(values: Sequence[float], p: float) -> float:
    """The ``p`` quantile (0..1) by linear interpolation between order
    statistics (``statistics.median`` at 0.5)."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p
    low = int(rank)
    if low + 1 >= len(ordered):
        return ordered[-1]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[low + 1] * frac


def geomean(values: Iterable[float]) -> float:
    """Geometric mean — the average of ratios, so no one program's
    absolute size dominates a workload's figure."""
    logs = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geomean of no values")
    return math.exp(sum(logs) / len(logs))


def tail(relative: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` for the highest percentile in
    :data:`TAIL_PERCENTILES` with at least :data:`TAIL_MIN_BEYOND`
    samples beyond it; the median when there are too few samples."""
    count = len(relative)
    chosen = TAIL_PERCENTILES[0]
    for percentile in TAIL_PERCENTILES:
        if count * (1.0 - percentile / 100.0) >= TAIL_MIN_BEYOND:
            chosen = percentile
    return chosen, quantile(relative, chosen / 100.0)


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread: the distance between the first and third
    quartile as a share of the median, with the quartiles exactly as
    ``statistics.quantiles(values, n=4)`` gives them (the driver's
    definition).  Fewer than four runs fall back to (max - min)."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def summarize(per_program: dict) -> dict:
    """One metric's figures from ``{program: [samples]}``: the value is
    the geometric mean over programs of the per-program median."""
    programs = {p: s for p, s in per_program.items() if s}
    medians = {p: median(s) for p, s in programs.items()}
    pooled: List[float] = [
        sample / medians[p] for p, s in programs.items() for sample in s
    ]
    percentile, tail_ratio = tail(pooled)
    return {
        "value": geomean(medians.values()),
        "samples": len(pooled),
        "lower_quartile": geomean(quantile(s, 0.25)
                                  for s in programs.values()),
        "tail_percentile": percentile,
        "tail_over_median": tail_ratio,
        "per_program": medians,
    }
