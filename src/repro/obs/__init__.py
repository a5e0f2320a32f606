"""``repro.obs`` — zero-dependency VM observability.

Six layers:

* :class:`Tracer` — cheap structured event tracing from any thread
  (instants, and spans recorded as one complete event each);
* :class:`MetricsRegistry` — named counters/gauges/timers (timers are
  histogram-backed: every ``record_time`` also lands in a
  :class:`LogHistogram`, so ``timer_stats`` reports p50/p90/p99/p999);
* :class:`FlightRecorder` — a Tracer over a bounded ring, cheap enough
  to leave on in production; dumps a Chrome trace of the last N events
  on demand or when an anomaly trips (deopt-thrash pin, invalidation
  storm, uncaught trap);
* :class:`SamplingProfiler` — a background thread attributing wall time
  across tiers with zero per-op instrumentation;
* journeys — per-function tier-journey reports answering "why is this
  function still at baseline?";
* exporters — Chrome trace-event JSON (Perfetto-loadable), a table
  report, and a machine-readable stats JSON.

The :class:`Telemetry` facade bundles a registry and an optional event
sink: ``tel.event(...)`` / ``with tel.span(...)`` always count, and
record on the sink when there is one (``tel.enabled``).  An engine built
while nothing is being traced owns a sinkless telemetry, so its counters
work and its spans read no clock.  Scripts enable tracing with::

    from repro.obs import trace
    with trace(chrome="trace.json", report=True):
        engine = ExecutionEngine(module)
        engine.run("main")

while production runs attach :func:`production_telemetry` (a Telemetry
over a FlightRecorder) or pass ``flight=True`` to the engine.  Inspect
traces with ``python -m repro.obs report|flight|profile|journey``.
See ``docs/observability.md`` for the event vocabulary.
"""

from .. import lazy_exports
from . import events
from .events import EVENT_NAMES, INSTANT_NAMES, SPAN_NAMES, validate_events
from .flight import FlightRecorder
from .histogram import LogHistogram
from .metrics import MetricsRegistry
from .telemetry import (
    Telemetry,
    ambient,
    local_telemetry,
    production_telemetry,
    set_ambient,
    trace,
)
from .tracer import Tracer

# what reads a finished trace loads on first use; an engine only records
__getattr__ = lazy_exports(__name__, {
    "export": (
        "chrome_events_from_raw",
        "chrome_trace_document",
        "chrome_trace_events",
        "format_report",
        "format_trace_report",
        "load_chrome_trace",
        "stats_document",
        "summarize_chrome_events",
        "validate_chrome_trace",
        "write_chrome_trace",
        "write_stats_json",
    ),
    "journey": ("Journey", "build_journeys", "format_journeys"),
    "profiler": ("SamplingProfiler", "classify_frame"),
})

__all__ = [
    "EVENT_NAMES",
    "INSTANT_NAMES",
    "SPAN_NAMES",
    "FlightRecorder",
    "Journey",
    "LogHistogram",
    "MetricsRegistry",
    "SamplingProfiler",
    "Telemetry",
    "Tracer",
    "ambient",
    "build_journeys",
    "chrome_events_from_raw",
    "chrome_trace_document",
    "chrome_trace_events",
    "classify_frame",
    "events",
    "format_journeys",
    "format_report",
    "format_trace_report",
    "load_chrome_trace",
    "local_telemetry",
    "production_telemetry",
    "set_ambient",
    "stats_document",
    "summarize_chrome_events",
    "trace",
    "validate_chrome_trace",
    "validate_events",
    "write_chrome_trace",
    "write_stats_json",
]
