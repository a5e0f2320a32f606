"""Trace smoke run: a shootout program with tracing on and a firing OSR.

Backs ``make trace-smoke`` and the pytest smoke test: compile one
shootout benchmark, run it in the default tiered mode with telemetry
attached and an always-firing resolved OSR point in its per-iteration
method, then once more on a ``tiered-bg`` engine so a compile worker
contributes events under its own ``tid``; validate the raw stream
(completion order, per-thread nesting) and the exported Chrome
document.  A healthy VM produces at least ``tier.promote``,
``jit.compile`` and ``osr.fire`` events, from at least two threads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .events import validate_events
from .export import chrome_trace_events, validate_chrome_trace, write_chrome_trace
from .telemetry import Telemetry

#: events a tiered shootout run with a firing OSR point must produce
REQUIRED_EVENTS = ("tier.promote", "jit.compile", "osr.fire")


class SmokeResult:
    def __init__(self, telemetry: Telemetry, checksum, problems: List[str],
                 missing: List[str]):
        self.telemetry = telemetry
        self.checksum = checksum
        self.problems = problems  #: schema violations (empty when valid)
        self.missing = missing    #: required events absent from the trace

    @property
    def ok(self) -> bool:
        return not self.problems and not self.missing


def run_trace_smoke(benchmark_name: str = "n-body",
                    level: str = "unoptimized",
                    call_threshold: int = 4,
                    out: Optional[str] = None,
                    telemetry: Optional[Telemetry] = None,
                    tier: str = "tiered") -> SmokeResult:
    """Run the smoke scenario; optionally write the trace to ``out``.

    Pass ``telemetry`` to drive the run through a caller-owned sink —
    the flight-recorder CLI runs the same scenario over a
    :func:`~repro.obs.telemetry.production_telemetry` ring.
    """
    from ..core import HotCounterCondition, insert_resolved_osr_point
    from ..experiments.sites import q2_location
    from ..shootout import SUITE, compile_benchmark
    from ..vm import ExecutionEngine

    benchmark = SUITE[benchmark_name]
    module = compile_benchmark(benchmark, level)
    if telemetry is None:
        telemetry = Telemetry()
    engine = ExecutionEngine(module, tier=tier,
                             call_threshold=call_threshold,
                             telemetry=telemetry)
    # always-firing resolved OSR in the per-iteration method: every call
    # transfers to the continuation, so the trace records real fires
    location = q2_location(module, benchmark)
    insert_resolved_osr_point(
        location.function, location, HotCounterCondition(1), engine=engine,
    )
    checksum = engine.run(benchmark.entry, *benchmark.args)
    # the same program once more with tier-up on a worker thread
    background = ExecutionEngine(compile_benchmark(benchmark, level),
                                 tier="tiered-bg",
                                 call_threshold=call_threshold,
                                 telemetry=telemetry)
    try:
        background.run(benchmark.entry, *benchmark.args)
        background.drain_background()
    finally:
        background.shutdown_background()

    events = chrome_trace_events(telemetry)
    problems = validate_events(telemetry.events)
    problems += validate_chrome_trace(events)
    seen = {str(event["name"]) for event in events}
    missing = [name for name in REQUIRED_EVENTS if name not in seen]
    if len({event["tid"] for event in events}) < 2:
        missing.append("an event from a second thread")
    if out is not None:
        write_chrome_trace(telemetry, out)
    return SmokeResult(telemetry, checksum, problems, missing)
