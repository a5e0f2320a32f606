"""Harness-side spans: one around each public call into ``repro``.

Spans live in memory as plain dicts (``id, name, start, end, parent,
op``) and are written out once, at exit.  A layer's *self time* is its
span's duration minus the part its child spans cover; per op the self
times must add up to the op's wall time.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

_now = time.perf_counter


class NullTracer:
    """Tracing off: ``call`` is a plain call, so the untraced run pays
    one extra Python frame per public call and nothing else."""

    enabled = False

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None
        #: the most recently closed span without a parent: the op stage
        #: whose timing the caller has just finished
        self.last_root: Optional[dict] = None

    def open(self, name: str, start: Optional[float] = None) -> dict:
        span = {
            "id": len(self.spans), "name": name,
            "start": _now() if start is None else start, "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict, end: Optional[float] = None) -> None:
        span["end"] = _now() if end is None else end
        popped = self._stack.pop()
        if popped != span["id"]:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        if span["parent"] is None:
            self.last_root = span

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int]) -> dict:
        """Record a span measured elsewhere (a child process's stage)."""
        span = {"id": len(self.spans), "name": name, "start": start,
                "end": end, "parent": parent, "op": self.op}
        self.spans.append(span)
        return span


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the duration of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def op_closure(spans: List[dict]) -> Dict[int, float]:
    """Per op id: (sum of the self times of the op's spans) / (wall time
    of the op's root span).  1.0 means the stages account for exactly
    the op.  A self time below zero — children that overlap or outlast
    their parent, as a misplaced child-process stage would — counts as
    zero, so broken nesting pushes the ratio above 1."""
    own = self_times(spans)
    totals: Dict[int, float] = {}
    walls: Dict[int, float] = {}
    for span in spans:
        if span["op"] is None:
            continue
        totals[span["op"]] = (totals.get(span["op"], 0.0)
                              + max(own[span["id"]], 0.0))
        if span["parent"] is None:
            walls[span["op"]] = (walls.get(span["op"], 0.0)
                                 + span["end"] - span["start"])
    return {op: totals[op] / walls[op] for op in walls if walls[op] > 0}


def layer_self_ms(spans: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    """Span name -> program -> self times in ms, one per span.  A root
    span carries its op's ``program`` and ``scale`` (reference / raw
    time); its descendants inherit both, so layer figures are in the
    same reference milliseconds as the end-to-end ones."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    out: Dict[str, Dict[str, List[float]]] = {}
    for span in spans:
        root = span
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        if "scale" not in root:
            continue
        out.setdefault(span["name"], {}).setdefault(
            root["program"], []).append(
                own[span["id"]] * root["scale"] * 1e3)
    return out
