"""Log-bucketed latency histograms with percentile snapshots.

:class:`LogHistogram` is the HDR-histogram idea reduced to what the VM
needs: observations (seconds) are folded into logarithmically spaced
buckets — every power-of-two octave is split into ``2**sub_bits``
linear sub-buckets — so memory stays bounded (a sparse dict of bucket
counts) and relative error is bounded by ``2**-sub_bits`` (~3% at the
default 5 bits) regardless of the dynamic range.  That is what makes it
safe to leave on for millions of calls: recording is an integer
bit-twiddle plus a dict increment, and a snapshot walks at most a few
hundred occupied buckets.

Recording, merging and reading are each lock-safe; two histograms can
be merged without deadlock (the source is snapshotted under its own
lock first, then folded under the destination's).

:class:`~repro.obs.metrics.MetricsRegistry` attaches one histogram to
every timer, so any ``record_time`` name — per-call dispatch latency,
``jit.compile`` time, deopt-transition cost — gains
``p50/p90/p99/p999`` in ``timer_stats`` and ``snapshot()`` for free.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Tuple

#: the percentiles every snapshot reports, as (key, percentile) pairs
SNAPSHOT_PERCENTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("p999", 99.9),
)


class LogHistogram:
    """Sparse log-bucketed histogram of durations (stored as integer
    nanoseconds, reported as float seconds)."""

    __slots__ = ("_sub_bits", "_counts", "_count", "_total_ns",
                 "_min_ns", "_max_ns", "_lock")

    def __init__(self, sub_bits: int = 5):
        if not 1 <= sub_bits <= 12:
            raise ValueError("sub_bits must be in [1, 12]")
        self._sub_bits = sub_bits
        #: bucket index -> observation count (sparse)
        self._counts: Dict[int, int] = {}
        self._count = 0
        self._total_ns = 0
        self._min_ns: Optional[int] = None
        self._max_ns: Optional[int] = None
        self._lock = threading.Lock()

    # -- bucket math (pure functions of the index) --------------------------------

    def _bucket_index(self, ns: int) -> int:
        bits = self._sub_bits
        if ns < (1 << bits):
            return ns  # small values are exact (one bucket per ns)
        shift = ns.bit_length() - 1 - bits
        return ((shift + 1) << bits) + ((ns >> shift) - (1 << bits))

    def _bucket_mid_ns(self, index: int) -> float:
        bits = self._sub_bits
        base = 1 << bits
        if index < base:
            return float(index)
        octave = index >> bits
        shift = octave - 1
        offset = index - (octave << bits)
        lo = (base + offset) << shift
        return lo + (1 << shift) / 2.0

    # -- recording ----------------------------------------------------------------

    def record(self, seconds: float) -> None:
        """Fold one observation (non-negative seconds) in."""
        self.record_ns(int(seconds * 1e9))

    def record_ns(self, ns: int) -> None:
        if ns < 0:
            ns = 0
        index = self._bucket_index(ns)
        with self._lock:
            self._counts[index] = self._counts.get(index, 0) + 1
            self._count += 1
            self._total_ns += ns
            if self._min_ns is None or ns < self._min_ns:
                self._min_ns = ns
            if self._max_ns is None or ns > self._max_ns:
                self._max_ns = ns

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other``'s observations into this histogram.

        Deadlock-safe: ``other`` is copied under its own lock first,
        then folded under ours — so two threads merging in opposite
        directions never hold both locks at once.
        """
        if other._sub_bits != self._sub_bits:
            raise ValueError("cannot merge histograms with different "
                             "sub-bucket resolution")
        with other._lock:
            items = list(other._counts.items())
            count = other._count
            total = other._total_ns
            lo, hi = other._min_ns, other._max_ns
        with self._lock:
            for index, n in items:
                self._counts[index] = self._counts.get(index, 0) + n
            self._count += count
            self._total_ns += total
            if lo is not None and (self._min_ns is None or lo < self._min_ns):
                self._min_ns = lo
            if hi is not None and (self._max_ns is None or hi > self._max_ns):
                self._max_ns = hi
        return self

    # -- reading ------------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total_ns / 1e9

    @property
    def min(self) -> Optional[float]:
        return None if self._min_ns is None else self._min_ns / 1e9

    @property
    def max(self) -> Optional[float]:
        return None if self._max_ns is None else self._max_ns / 1e9

    def percentile(self, p: float) -> Optional[float]:
        """The value (seconds) at percentile ``p`` in [0, 100], or None
        when the histogram is empty.  Estimates use bucket midpoints,
        clamped to the observed min/max so tails never over-report."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            return self._percentile_locked(p)

    def _percentile_locked(self, p: float) -> Optional[float]:
        if self._count == 0:
            return None
        # rank of the observation at percentile p (1-based, ceil)
        rank = max(1, -(-int(self._count * p * 10) // 1000))
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= rank:
                mid = self._bucket_mid_ns(index)
                mid = min(max(mid, self._min_ns), self._max_ns)
                return mid / 1e9
        return self._max_ns / 1e9  # pragma: no cover — rank <= count

    def percentiles(self, ps: Iterable[float]) -> Dict[float, Optional[float]]:
        with self._lock:
            return {p: self._percentile_locked(p) for p in ps}

    def snapshot(self) -> Dict[str, object]:
        """A consistent, JSON-serializable summary (seconds)."""
        with self._lock:
            out: Dict[str, object] = {
                "count": self._count,
                "total": self._total_ns / 1e9,
                "min": None if self._min_ns is None else self._min_ns / 1e9,
                "max": None if self._max_ns is None else self._max_ns / 1e9,
                "mean": (self._total_ns / self._count / 1e9
                         if self._count else 0.0),
            }
            for key, p in SNAPSHOT_PERCENTILES:
                out[key] = self._percentile_locked(p)
        return out

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
            self._count = 0
            self._total_ns = 0
            self._min_ns = None
            self._max_ns = None

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<LogHistogram n={self._count} "
                f"buckets={len(self._counts)}>")
