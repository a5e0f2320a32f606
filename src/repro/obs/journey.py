"""Per-function tier-journey reports assembled from the event stream.

A *journey* is the compilation life story of one function, read off a
telemetry trace: decode (fusion/bailout) → hotness threshold → compile
→ publish → promotion → OSR fires → guard
failures/deopts → respecialization → invalidation/demotion → pinning.
The builder groups the closed-vocabulary events by the function they
name and orders them by timestamp, so the report answers the two
questions production triage actually asks:

* *what happened to this function, in order, and when?*
* *why is this function still at baseline?* — diagnosed from the shape
  of the journey (never got hot, decode bailed out, tier-up compiled but
  discarded, pinned by deopt thrash, ...).

Works on a live telemetry's raw events or on an exported Chrome trace
(``python -m repro.obs journey trace.json``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from . import events as EV

#: events that appear in a journey, with the arg naming its function
#: (checked in order; the first present wins)
_FUNCTION_ARGS = ("function", "continuation", "target")

#: journey-relevant event names (everything else is skipped)
JOURNEY_EVENTS = frozenset({
    EV.DECODE_BAILOUT, EV.DECODE_FUSE,
    EV.PROFILE_CALL_HOT, EV.PROFILE_BACKEDGE_HOT,
    EV.COMPILE_START, EV.COMPILE_INSTALL, EV.COMPILE_DISCARD,
    EV.JIT_COMPILE, EV.JIT_CACHE_HIT, EV.JIT_CACHE_MISS,
    EV.TIER_PROMOTE, EV.TIER_DEMOTE, EV.ENGINE_INVALIDATE,
    EV.OSR_INSERT, EV.OSR_FIRE,
    EV.FEVAL_SPECIALIZE, EV.FEVAL_CACHE_HIT, EV.FEVAL_GUARD_FAIL,
    EV.SPEC_SPECIALIZE, EV.SPEC_DISPATCH, EV.SPEC_RESPECIALIZE,
    EV.SPEC_PINNED,
    EV.DEOPT_GUARD_FAIL, EV.DEOPT_EXIT, EV.DEOPT_INVALIDATE,
})


class Journey:
    """One function's ordered event timeline plus derived verdicts."""

    def __init__(self, function: str):
        self.function = function
        #: (ts_us, event name, args) in timestamp order
        self.steps: List[Tuple[float, str, Dict[str, object]]] = []

    def count(self, name: str) -> int:
        return sum(1 for _, event, _ in self.steps if event == name)

    def first(self, name: str) -> Optional[Tuple[float, Dict[str, object]]]:
        for ts, event, args in self.steps:
            if event == name:
                return ts, args
        return None

    @property
    def promoted(self) -> bool:
        return self.count(EV.TIER_PROMOTE) > 0

    @property
    def start_us(self) -> float:
        return self.steps[0][0] if self.steps else 0.0

    def diagnose(self) -> str:
        """One-line verdict; for unpromoted functions, *why* they are
        still at baseline."""
        if self.promoted:
            promote = self.first(EV.TIER_PROMOTE)
            verdict = (f"promoted at +{promote[0] - self.start_us:.0f}us")
            demotes = self.count(EV.TIER_DEMOTE)
            if demotes:
                verdict += f", demoted {demotes}x"
            pins = self.count(EV.SPEC_PINNED)
            if pins:
                verdict += ", then pinned to baseline by deopt thrash"
            return verdict
        if self.count(EV.SPEC_PINNED):
            return ("at baseline: pinned by the deopt-thrash limit "
                    f"after {self.count(EV.DEOPT_GUARD_FAIL)} guard failures")
        bailout = self.first(EV.DECODE_BAILOUT)
        if bailout is not None:
            reason = bailout[1].get("reason", "?")
            return (f"at baseline: decode bailed out ({reason}) — running "
                    "the tree-walking interpreter")
        started = self.count(EV.COMPILE_START)
        if started and not self.count(EV.COMPILE_INSTALL):
            discards = self.count(EV.COMPILE_DISCARD)
            return ("at baseline: tier-up compiled but never published "
                    f"({started} started, {discards} discarded)")
        hot = (self.count(EV.PROFILE_CALL_HOT)
               + self.count(EV.PROFILE_BACKEDGE_HOT))
        if not hot:
            return "at baseline: never crossed the hotness thresholds"
        return "at baseline: hot, but no compile was observed"


def _normalize(events: Iterable[Dict[str, object]]
               ) -> List[Tuple[float, str, Dict[str, object]]]:
    """(ts_us, name, args) from raw tracer events (ns timestamps) or
    Chrome trace events (µs timestamps, ``pid`` present), ordered by
    ``ts`` — a span's start, so it sorts before what happened inside it
    although the stream records it on completion."""
    out = []
    for event in events:
        name = event.get("name")
        if not isinstance(name, str):
            continue
        ts = event.get("ts", 0)
        if "pid" not in event:
            ts = ts / 1000.0  # raw tracer: ns -> µs
        out.append((float(ts), name, dict(event.get("args") or {})))
    out.sort(key=lambda step: step[0])
    return out


def build_journeys(events: Iterable[Dict[str, object]]
                   ) -> Dict[str, Journey]:
    """Group a trace's events into per-function journeys.

    ``events`` may be raw tracer/flight events or Chrome trace events.
    """
    journeys: Dict[str, Journey] = {}
    for ts, name, args in _normalize(events):
        if name not in JOURNEY_EVENTS:
            continue
        function = None
        for key in _FUNCTION_ARGS:
            value = args.get(key)
            if isinstance(value, str):
                function = value
                break
        if function is None:
            continue
        # continuations/specializations roll up under their base
        # function so a journey reads as one story ("f.spec" -> "f")
        base = function.split(".", 1)[0].split("_to", 1)[0]
        journey = journeys.get(base)
        if journey is None:
            journey = journeys[base] = Journey(base)
        journey.steps.append((ts, name, args))
    return journeys


def _format_args(args: Dict[str, object]) -> str:
    shown = {k: v for k, v in args.items()
             if k not in ("function",)}
    if not shown:
        return ""
    return " " + " ".join(f"{k}={v}" for k, v in sorted(shown.items()))


def format_journeys(journeys: Dict[str, Journey],
                    function: Optional[str] = None,
                    max_steps: int = 20) -> str:
    """The human-readable journey report (one block per function)."""
    names = sorted(journeys)
    if function is not None:
        names = [name for name in names if name == function]
        if not names:
            return f"no journey recorded for function {function!r}"
    lines: List[str] = []
    for name in names:
        journey = journeys[name]
        lines.append(f"@{name} — {journey.diagnose()}")
        start = journey.start_us
        steps = journey.steps
        shown = steps[:max_steps]
        for ts, event, args in shown:
            lines.append(
                f"  +{ts - start:>10.0f}us {event:<22}{_format_args(args)}"
            )
        if len(steps) > len(shown):
            lines.append(f"  ... {len(steps) - len(shown)} more events")
        lines.append("")
    if not lines:
        return "(no journey events in trace)"
    return "\n".join(lines).rstrip()
