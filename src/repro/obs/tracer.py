"""Structured event tracing: instants and stackless spans, from any thread.

The tracer records a flat, append-only list of event dicts with
nanosecond timestamps.  There are two shapes and nothing else:

* an *instant* — ``{"name", "ph": "i", "ts", "tid", "args"}``;
* a *span* — one **complete** event appended when the span ends:
  ``{"name", "ph": "X", "ts", "dur", "tid", "args"}`` (``ts`` is the
  start, ``dur`` the length).

A span is not matched through a stack: whoever opened it holds its start
time (:meth:`Tracer.now`) and hands it back to :meth:`Tracer.complete`,
so spans from any number of threads overlap freely on one tracer and an
abandoned span leaves nothing behind.  ``tid`` is the emitting thread's
:func:`threading.get_ident`.

The stream rule (checked by :func:`repro.obs.events.validate_events`):
events appear in *completion* order — ``ts`` for an instant, ``ts+dur``
for a span, never decreasing — and the spans of one ``tid`` nest or are
disjoint.  Both hold by construction: a lock makes each (clock read,
append) pair atomic and the clock is clamped to be monotonic.

The clock is injectable for deterministic tests; the default is
:func:`time.perf_counter_ns`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """Collects trace events; the sink of a :class:`~repro.obs.Telemetry`."""

    def __init__(self, clock: Optional[Callable[[], int]] = None):
        self._buffer = []  # FlightRecorder swaps in a bounded deque
        self._clock = clock if clock is not None else time.perf_counter_ns
        self._last_ts: int = 0
        self._lock = threading.Lock()

    @property
    def events(self) -> List[Dict[str, object]]:
        return self._buffer

    def _now(self) -> int:
        # clamp so a non-monotonic injected clock cannot corrupt the
        # stream invariant the exporters rely on; caller holds the lock
        ts = self._clock()
        if ts < self._last_ts:
            ts = self._last_ts
        self._last_ts = ts
        return ts

    def _append(self, event: Dict[str, object]) -> None:
        self._buffer.append(event)

    def _record_instant(self, name: str, args: Dict[str, object]) -> int:
        ts = self._now()
        self._append({"name": name, "ph": "i", "ts": ts,
                      "tid": threading.get_ident(), "args": args})
        return ts

    def now(self) -> int:
        """A span's start time, to be handed back to :meth:`complete`."""
        with self._lock:
            return self._now()

    def instant(self, name: str, args: Dict[str, object]) -> None:
        with self._lock:
            self._record_instant(name, args)

    def complete(self, name: str, start: int,
                 args: Dict[str, object]) -> int:
        """Record the span that began at ``start`` and ends now; returns
        its duration in nanoseconds."""
        with self._lock:
            dur = self._now() - start
            self._append({"name": name, "ph": "X", "ts": start, "dur": dur,
                          "tid": threading.get_ident(), "args": args})
        return dur

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {len(self)} events>"
