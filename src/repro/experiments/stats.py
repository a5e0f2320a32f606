"""Timing statistics shared by the experiment drivers.

The paper reports means of 10 trials after a warm-up iteration with 95%
confidence intervals; we default to fewer trials (the substrate is a
simulator — differences of interest are large relative to noise) but keep
the same protocol shape, including the warm-up and the t-based interval.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Callable, List, NamedTuple

#: two-sided 95% t critical values by degrees of freedom (1..10)
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
        6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228}


class TimingResult(NamedTuple):
    mean: float          #: seconds
    ci95: float          #: half-width of the 95% confidence interval
    trials: List[float]

    @property
    def best(self) -> float:
        """Fastest trial — the robust estimator under interference noise
        (a simulator process has no lower-is-wrong failure mode)."""
        return min(self.trials) if self.trials else self.mean

    def __str__(self) -> str:
        return f"{self.mean * 1000:.1f} ± {self.ci95 * 1000:.1f} ms"


def time_run(fn: Callable[[], object], trials: int = 5,
             warmup: int = 1) -> TimingResult:
    """Run ``fn`` ``warmup`` + ``trials`` times; time the trials.

    Garbage collection is paused around each timed trial so allocation
    spikes from other code don't land in the measurement.
    """
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(trials):
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
    return summarize(samples)


def span_total(telemetry, name: str) -> float:
    """Total seconds spent in ``name`` spans *of this telemetry's trace*.

    Reads the trace rather than the (possibly ambient-shared) metrics
    timer, so concurrent experiments cannot bleed into each other's
    numbers.
    """
    return sum(event["dur"] for event in telemetry.events
               if event["name"] == name) / 1e9


def fire_count(telemetry) -> int:
    """Number of ``osr.fire`` instants in this telemetry's trace."""
    from ..obs import events as EV

    return sum(1 for e in telemetry.events if e["name"] == EV.OSR_FIRE)


def summarize(samples: List[float]) -> TimingResult:
    n = len(samples)
    mean = sum(samples) / n
    if n < 2:
        return TimingResult(mean, 0.0, samples)
    variance = sum((s - mean) ** 2 for s in samples) / (n - 1)
    stderr = math.sqrt(variance / n)
    tval = _T95.get(n - 1, 1.96)
    return TimingResult(mean, tval * stderr, samples)
