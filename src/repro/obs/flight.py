"""Flight recorder: a bounded, always-on ring buffer of telemetry events.

The full :class:`~repro.obs.tracer.Tracer` keeps an unbounded event
list — perfect for experiments, unusable always-on (a server-style
``tiered-bg`` engine would grow it without limit).  The
:class:`FlightRecorder` is a *bounded* tracer: same clock, lock, event
shapes and stream rule, but the buffer is a fixed-capacity ring that
keeps the *most recent* events and counts what it dropped.  Because a
span is one complete event, a ring that has wrapped still dumps a well
formed trace.  On top of the ring it adds anomaly triggers and an
on-demand Chrome dump.

Anomaly triggers (each records a ``flight.anomaly`` instant, remembers
the reason, and — when ``dump_path`` is set — writes the ring to disk
so the events *leading up to* the anomaly survive):

* **deopt-thrash pin** — a ``spec.pinned`` event (the speculation
  manager gave up on a function);
* **invalidation storm** — ``storm_threshold`` or more
  ``engine.invalidate`` events inside ``storm_window_s`` seconds;
* **uncaught trap** — the engine reports a :class:`Trap` escaping a
  top-level call (``engine.call`` wires this up).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from . import events as EV
from .tracer import Tracer

#: default ring capacity — at ~100 bytes/event this is well under a MB
DEFAULT_CAPACITY = 4096


class FlightRecorder(Tracer):
    """A :class:`Tracer` over a drop-oldest ring, with anomaly triggers."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 clock: Optional[Callable[[], int]] = None,
                 dump_path: Optional[str] = None,
                 storm_threshold: int = 8,
                 storm_window_s: float = 0.5):
        if capacity < 1:
            raise ValueError("FlightRecorder needs capacity >= 1")
        super().__init__(clock=clock)
        self.capacity = capacity
        self.dump_path = dump_path
        self._buffer = deque(maxlen=capacity)
        #: lifetime totals — ``recorded - dropped`` events survived all
        #: rings this recorder has held (``clear`` empties the ring but
        #: keeps the lifetime counters)
        self.recorded = 0
        self.dropped = 0
        #: anomalies tripped so far: (reason, ts ns) in firing order
        self.anomalies: List[Tuple[str, int]] = []
        self._storm_threshold = storm_threshold
        self._storm_window_ns = int(storm_window_s * 1e9)
        self._invalidate_ts: deque = deque()

    # -- recording ----------------------------------------------------------------

    def _append(self, event: Dict[str, object]) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)
        self.recorded += 1

    def instant(self, name: str, args: Dict[str, object]) -> None:
        with self._lock:
            ts = self._record_instant(name, args)
            anomaly = self._check_anomaly_locked(name, ts)
        if anomaly is not None:
            self.anomaly(anomaly)

    @property
    def events(self) -> List[Dict[str, object]]:
        """Snapshot of the ring, oldest first."""
        with self._lock:
            return list(self._buffer)

    # -- anomalies ----------------------------------------------------------------

    def _check_anomaly_locked(self, name: str, ts: int) -> Optional[str]:
        if name == EV.SPEC_PINNED:
            return "deopt-thrash-pin"
        if name == EV.ENGINE_INVALIDATE:
            window = self._invalidate_ts
            window.append(ts)
            floor = ts - self._storm_window_ns
            while window and window[0] < floor:
                window.popleft()
            if len(window) >= self._storm_threshold:
                window.clear()  # re-arm: one anomaly per storm
                return "invalidation-storm"
        return None

    def anomaly(self, reason: str) -> None:
        """Record an anomaly: remember it, mark the stream, and dump the
        ring to ``dump_path`` when one is configured."""
        with self._lock:
            ts = self._record_instant(
                EV.FLIGHT_ANOMALY,
                {"reason": reason, "index": len(self.anomalies) + 1})
            self.anomalies.append((reason, ts))
        if self.dump_path is not None:
            self.dump(self.dump_path)

    # -- export -------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "buffered": len(self),
            "recorded": self.recorded,
            "dropped": self.dropped,
            "anomalies": [reason for reason, _ in self.anomalies],
        }

    def dump(self, path: str) -> None:
        """Write the ring's current contents as a Chrome trace document."""
        import json

        from .export import chrome_events_from_raw

        document = {
            "traceEvents": chrome_events_from_raw(self.events),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.flight",
                          **{k: v for k, v in self.stats().items()
                             if k != "anomalies"}},
        }
        with open(path, "w") as fh:
            json.dump(document, fh, indent=1)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FlightRecorder {len(self)}/{self.capacity} "
                f"dropped={self.dropped} anomalies={len(self.anomalies)}>")
