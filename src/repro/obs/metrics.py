"""Named counters, gauges and timers with snapshot + diff support.

One :class:`MetricsRegistry` is the single stats surface for a VM: the
execution engine folds its counters into it, telemetry events bump a
counter per event name, and spans accumulate into timers — so a
benchmark run can snapshot before/after and report exactly what the
runtime did in between.

Counters are plain dict increments (cheap enough to stay on even
without tracing); timers record ``(count, total, min, max)`` in seconds
*and* feed a per-timer :class:`~repro.obs.histogram.LogHistogram`, so
``timer_stats`` and ``snapshot()`` report ``p50/p90/p99/p999``
percentiles alongside the scalar summary — the distribution view the
always-on production telemetry is built on.

The registry is thread-safe: one lock guards every mutation, so the
background compile workers and the main thread fold into the same
counters/timers without losing increments.  Counter and gauge reads
stay lock-free (a read racing a write sees the old or the new value,
never a torn one, because ints/floats are replaced wholesale); timer
reads copy the cell *under the lock* — the scalar fields are mutated
one by one, so a lock-free reader could otherwise see a count from one
observation and a total from another.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Optional

from .histogram import SNAPSHOT_PERCENTILES, LogHistogram


class _TimerCell:
    """One timer's accumulator: scalar summary + latency histogram.

    Scalars are mutated field-by-field under the registry lock and must
    only be read under it (copied into immutable snapshots); the
    histogram carries its own lock so it can also be read standalone.
    """

    __slots__ = ("count", "total", "min", "max", "hist")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.hist = LogHistogram()


class MetricsRegistry:
    """Process-local registry of named counters, gauges and timers."""

    __slots__ = ("_counters", "_gauges", "_timers", "_lock")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, _TimerCell] = {}
        self._lock = threading.Lock()

    # -- counters -----------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> int:
        """Increment counter ``name`` and return its new value."""
        with self._lock:
            value = self._counters.get(name, 0) + amount
            self._counters[name] = value
            return value

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    # -- gauges -------------------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to an absolute value."""
        with self._lock:
            self._gauges[name] = value

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        return self._gauges.get(name, default)

    # -- timers -------------------------------------------------------------------

    def record_time(self, name: str, seconds: float) -> None:
        """Fold one observation into timer ``name`` (scalars + histogram)."""
        with self._lock:
            cell = self._timers.get(name)
            if cell is None:
                cell = self._timers[name] = _TimerCell()
            cell.count += 1
            cell.total += seconds
            if cell.min is None or seconds < cell.min:
                cell.min = seconds
            if cell.max is None or seconds > cell.max:
                cell.max = seconds
            # lock order is always registry -> histogram, never reversed
            cell.hist.record(seconds)

    @contextmanager
    def timer(self, name: str):
        """Time a ``with`` block into timer ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_time(name, time.perf_counter() - start)

    def timer_stats(self, name: str) -> Optional[Dict[str, float]]:
        """A consistent snapshot of one timer: count/total/min/max/mean
        plus ``p50/p90/p99/p999`` from the attached histogram.

        The cell is copied under the registry lock (its fields are
        mutated one at a time, so a lock-free read could tear — count
        from one observation, total from another).
        """
        with self._lock:
            copied = self._copy_timer_locked(name)
        if copied is None:
            return None
        return self._stats_from_copy(copied)

    def _copy_timer_locked(self, name: str):
        """Immutable (count, total, min, max, hist) copy of one cell;
        caller holds the registry lock."""
        cell = self._timers.get(name)
        if cell is None:
            return None
        return (cell.count, cell.total, cell.min, cell.max, cell.hist)

    @staticmethod
    def _stats_from_copy(copied) -> Dict[str, float]:
        count, total, lo, hi, hist = copied
        stats = {"count": count, "total": total, "min": lo, "max": hi,
                 "mean": total / count if count else 0.0}
        percentiles = hist.percentiles([p for _, p in SNAPSHOT_PERCENTILES])
        for key, p in SNAPSHOT_PERCENTILES:
            stats[key] = percentiles[p]
        return stats

    def timer_histogram(self, name: str) -> Optional[LogHistogram]:
        """The live histogram behind timer ``name`` (None if absent)."""
        with self._lock:
            cell = self._timers.get(name)
            return cell.hist if cell is not None else None

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A deep, JSON-serializable copy of the registry state."""
        with self._lock:
            copies = {name: self._copy_timer_locked(name)
                      for name in self._timers}
            counters = dict(self._counters)
            gauges = dict(self._gauges)
        return {
            "counters": counters,
            "gauges": gauges,
            "timers": {name: self._stats_from_copy(copied)
                       for name, copied in copies.items()},
        }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MetricsRegistry {len(self._counters)} counters "
            f"{len(self._gauges)} gauges {len(self._timers)} timers>"
        )
