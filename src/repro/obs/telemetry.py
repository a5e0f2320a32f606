"""The telemetry facade: a metrics registry plus an optional event sink.

Hook sites across the VM hold a telemetry object and emit through it;
there is one way to write an instant and one way to write a span, from
any thread, traced or not::

    tel = engine.telemetry
    tel.event(events.TIER_PROMOTE, function=func.name)
    with tel.span(events.JIT_COMPILE, function=func.name):
        ...

Every emission bumps the name's counter in :attr:`Telemetry.metrics`.
When a sink is attached (an unbounded :class:`~repro.obs.tracer.Tracer`
or a bounded :class:`~repro.obs.flight.FlightRecorder`) the event is
also recorded on it, and a span additionally folds its duration into
the name's timer.  A telemetry *without* a sink is what "tracing off"
means: it still counts, records nothing, and its spans read no clock.
``enabled`` says whether a sink is attached — sites test it only to
skip a timing or an attribute that is expensive to build.

The *ambient* telemetry is what engines pick up when constructed without
an explicit ``telemetry=`` argument; :func:`trace` installs one for a
``with`` block and exports the results on exit — the one-liner scripts
use::

    from repro.obs import trace
    with trace(chrome="trace.json", report=True) as tel:
        engine = ExecutionEngine(module)
        engine.run("main")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from .flight import DEFAULT_CAPACITY, FlightRecorder
from .metrics import MetricsRegistry
from .tracer import Tracer

#: ``Telemetry(tracer=...)`` default: build a fresh unbounded Tracer
_NEW_TRACER = object()


class _Span:
    """The guard ``Telemetry.span()`` returns.  It holds its own start
    time, so spans need no stack: on exit it records one complete event
    and folds the duration into the name's timer.  Without a sink it
    holds nothing and exit is a no-op."""

    __slots__ = ("_telemetry", "_name", "_args", "_start")

    def __init__(self, telemetry: "Telemetry", name: str,
                 args: Dict[str, object]):
        self._telemetry = telemetry
        self._name = name
        self._args = args
        tracer = telemetry.tracer
        self._start = tracer.now() if tracer is not None else None

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._start is not None:
            telemetry = self._telemetry
            dur = telemetry.tracer.complete(self._name, self._start,
                                            self._args)
            telemetry.metrics.record_time(self._name, dur / 1e9)


class Telemetry:
    """A metrics registry plus an optional event sink (``tracer``)."""

    __slots__ = ("tracer", "metrics", "enabled")

    def __init__(self, clock: Optional[Callable[[], int]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer=_NEW_TRACER):
        #: the event sink: an unbounded Tracer by default, a bounded
        #: :class:`~repro.obs.flight.FlightRecorder` from
        #: :func:`production_telemetry`, or None — count, record nothing
        self.tracer: Optional[Tracer] = (
            Tracer(clock=clock) if tracer is _NEW_TRACER else tracer)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: whether a sink is attached
        self.enabled = self.tracer is not None

    @property
    def flight(self) -> Optional[FlightRecorder]:
        """The flight recorder behind this telemetry, or None when the
        sink is a full tracer or absent — hook sites use this to report
        anomalies (``engine.call`` on an uncaught Trap)."""
        tracer = self.tracer
        return tracer if isinstance(tracer, FlightRecorder) else None

    def event(self, name: str, **args) -> None:
        """Bump the name's counter and record an instant on the sink."""
        self.metrics.inc(name)
        if self.tracer is not None:
            self.tracer.instant(name, args)

    def span(self, name: str, **args) -> _Span:
        """Open a span (``with`` block): counter now; on exit, one
        complete event on the sink plus a timer entry."""
        self.metrics.inc(name)
        return _Span(self, name, args)

    @property
    def events(self) -> List[Dict[str, object]]:
        return self.tracer.events if self.tracer is not None else []

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Telemetry {len(self.events)} events>"


#: what :func:`ambient` answers while nothing is installed: sinkless, so
#: engine-less emitters (the analysis manager, passes) need no check
_UNTRACED = Telemetry(tracer=None)

_ambient = _UNTRACED


def ambient() -> Telemetry:
    """The telemetry newly constructed engines attach to by default (an
    engine takes it only when it has a sink; otherwise it makes its own
    sinkless one, so counters stay per engine)."""
    return _ambient


def set_ambient(telemetry: Optional[Telemetry]) -> None:
    """Install ``telemetry`` as the ambient default (None: back to
    untraced); prefer the :func:`trace` context manager in scripts."""
    global _ambient
    _ambient = telemetry if telemetry is not None else _UNTRACED


def production_telemetry(capacity: int = DEFAULT_CAPACITY,
                         dump_path: Optional[str] = None,
                         metrics: Optional[MetricsRegistry] = None,
                         **recorder_options) -> Telemetry:
    """An always-on telemetry cheap enough for production engines.

    The event sink is a bounded :class:`~repro.obs.flight.FlightRecorder`
    (drop-oldest ring with anomaly triggers and on-demand Chrome dump)
    instead of the unbounded tracer, and the metrics registry's timers
    carry percentile histograms — so a ``tiered``/``tiered-bg`` engine
    can keep this attached across millions of calls and still answer
    "what were the p99 dispatch and compile latencies, and what happened
    right before that anomaly?".  ``ExecutionEngine(module, flight=True)``
    attaches one automatically.
    """
    recorder = FlightRecorder(capacity=capacity, dump_path=dump_path,
                              **recorder_options)
    return Telemetry(metrics=metrics, tracer=recorder)


def local_telemetry() -> Telemetry:
    """A fresh always-on telemetry for one experiment/configuration.

    Its trace is private (callers read span timings and fire counts off
    it deterministically, whether or not a :func:`trace` is active), but
    its metrics fold into the ambient registry when one is installed —
    so a benchmark runner's per-target snapshot diff still sees what the
    experiment engines did.
    """
    amb = _ambient
    return Telemetry(metrics=amb.metrics if amb.enabled else None)


@contextmanager
def trace(chrome: Optional[str] = None, report: bool = False,
          clock: Optional[Callable[[], int]] = None):
    """Enable tracing for a ``with`` block and export on exit.

    ``chrome`` is an output path for the Chrome trace-event JSON;
    ``report=True`` prints the human-readable table on exit.  Yields the
    live :class:`Telemetry` so the block can also inspect metrics
    directly.
    """
    from .export import format_report, write_chrome_trace

    telemetry = Telemetry(clock=clock)
    previous = _ambient
    set_ambient(telemetry)
    try:
        yield telemetry
    finally:
        set_ambient(previous)
        if chrome is not None:
            write_chrome_trace(telemetry, chrome)
        if report:
            print(format_report(telemetry))
