"""Exporters: Chrome trace-event JSON and the table report.

Two consumers of one event stream:

* :func:`write_chrome_trace` — the `Trace Event Format`_ document that
  ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_ load
  directly (open the UI, drag the file in);
* :func:`format_report` — a human-readable table of event counts and
  span timings for terminals and logs.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .events import nests

#: synthetic process id — the VM is single-process; thread ids are real
TRACE_PID = 1

#: Chrome timestamps are float µs derived from integral ns, so two equal
#: instants can differ by rounding; half a nanosecond separates them
#: from any real reordering
_ROUNDING_US = 5e-4


def chrome_events_from_raw(events: List[Dict[str, object]]
                           ) -> List[Dict[str, object]]:
    """Raw tracer/flight-recorder events in Chrome trace-event form
    (timestamps and durations in µs; ``tid`` passed through): instants
    (``i``) and complete spans (``X`` with an ns ``dur``)."""
    out: List[Dict[str, object]] = []
    for event in events:
        chrome: Dict[str, object] = {
            "name": event["name"],
            "cat": str(event["name"]).split(".", 1)[0],
            "ph": event["ph"],
            "ts": event["ts"] / 1000.0,
            "pid": TRACE_PID,
            "tid": event["tid"],
        }
        if event.get("args"):
            chrome["args"] = dict(event["args"])
        if event["ph"] == "i":
            chrome["s"] = "t"  # thread-scoped instant
        else:
            chrome["dur"] = event["dur"] / 1000.0
        out.append(chrome)
    return out


def chrome_trace_events(telemetry) -> List[Dict[str, object]]:
    """The tracer's events in Chrome trace-event form (timestamps in µs)."""
    return chrome_events_from_raw(telemetry.events)


def chrome_trace_document(telemetry) -> Dict[str, object]:
    return {
        "traceEvents": chrome_trace_events(telemetry),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }


def write_chrome_trace(telemetry, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace_document(telemetry), fh, indent=1)


def load_chrome_trace(path: str) -> List[Dict[str, object]]:
    """Events from a Chrome trace document (or bare event array)."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, list):
        return doc
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError(f"{path}: not a Chrome trace-event document")
    return events


def validate_chrome_trace(events: List[Dict[str, object]]) -> List[str]:
    """Structural checks against the trace-event schema and the stream
    rule (completion order; per-thread nesting); returns problems."""
    problems: List[str] = []
    done_by_thread: Dict[object, List[Tuple[float, float]]] = {}
    last_end: Optional[float] = None
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing required key {key!r}")
        phase = event.get("ph")
        if phase not in ("i", "I", "X", "M", "C"):
            problems.append(f"{where}: unsupported phase {phase!r}")
        ts = event.get("ts")
        dur = event.get("dur", 0) if phase == "X" else 0
        if not isinstance(ts, (int, float)):
            problems.append(f"{where}: non-numeric ts {ts!r}")
        elif not isinstance(dur, (int, float)) or dur < 0:
            problems.append(f"{where}: bad dur {dur!r}")
        elif phase in ("i", "I", "X"):
            end = ts + dur
            if last_end is not None and end < last_end - _ROUNDING_US:
                problems.append(
                    f"{where}: completion time went backwards "
                    f"({end} < {last_end})"
                )
            last_end = end
            thread = (event.get("pid"), event.get("tid"))
            if phase == "X" and not nests(
                    done_by_thread.setdefault(thread, []), ts, end,
                    slack=_ROUNDING_US):
                problems.append(
                    f"{where}: span {event.get('name')!r} partially "
                    f"overlaps an earlier span of thread {thread!r}"
                )
    return problems


def summarize_chrome_events(events: List[Dict[str, object]]
                            ) -> Dict[str, Dict[str, float]]:
    """Per-name counts and span durations from Chrome-format events."""
    summary: Dict[str, Dict[str, float]] = {}
    for event in events:
        phase = event.get("ph")
        if phase not in ("i", "I", "X"):
            continue
        cell = summary.setdefault(str(event.get("name")), {"count": 0})
        cell["count"] += 1
        if phase == "X":
            cell["total_us"] = cell.get("total_us", 0.0) + float(
                event.get("dur", 0)
            )
    return summary


def format_trace_report(events: List[Dict[str, object]],
                        title: str = "trace report") -> str:
    """Render a Chrome event list as the human-readable table."""
    summary = summarize_chrome_events(events)
    lines = [
        title,
        f"{'event':<22} {'count':>8} {'total':>12} {'mean':>12}",
    ]
    for name in sorted(summary):
        cell = summary[name]
        count = int(cell.get("count", 0))
        if "total_us" in cell and count:
            total = cell["total_us"]
            lines.append(
                f"{name:<22} {count:>8} {total:>9.1f} us "
                f"{total / count:>9.1f} us"
            )
        else:
            lines.append(f"{name:<22} {count:>8} {'-':>12} {'-':>12}")
    if len(lines) == 2:
        lines.append("(no events)")
    return "\n".join(lines)


def format_report(telemetry, title: str = "telemetry report") -> str:
    """The table report straight from a live telemetry object."""
    return format_trace_report(chrome_trace_events(telemetry), title=title)
