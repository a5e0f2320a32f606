"""Trace smoke run: a shootout program with tracing on and a firing OSR.

Backs ``make trace-smoke`` and the pytest smoke test: compile one
shootout benchmark, run it in the default tiered mode with telemetry
attached and an always-firing resolved OSR point in its per-iteration
method, then once more on a fresh ``tiered`` engine from a second
caller thread, whose promotions record events under its own ``tid``;
validate the raw stream (completion order, per-thread nesting) and the
exported Chrome document.  A healthy VM produces at least ``tier.promote``,
``jit.compile`` and ``osr.fire`` events, from at least two threads.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from .events import validate_events
from .export import chrome_trace_events, validate_chrome_trace, write_chrome_trace
from .telemetry import Telemetry

#: events a tiered shootout run with a firing OSR point must produce
REQUIRED_EVENTS = ("tier.promote", "jit.compile", "osr.fire")

#: the pipeline the benchmark is compiled with, and the call count that
#: promotes a function, so a short run still tiers up
LEVEL = "unoptimized"
CALL_THRESHOLD = 4


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
                    out: Optional[str] = None) -> SmokeResult:
    """Run the smoke scenario; optionally write the trace to ``out``."""
    from ..core import HotCounterCondition, insert_resolved_osr_point
    from ..experiments.sites import q2_location
    from ..shootout import SUITE, compile_benchmark
    from ..vm import ExecutionEngine

    benchmark = SUITE[benchmark_name]
    module = compile_benchmark(benchmark, LEVEL)
    telemetry = Telemetry()
    engine = ExecutionEngine(module, tier="tiered",
                             call_threshold=CALL_THRESHOLD,
                             telemetry=telemetry)
    # always-firing resolved OSR in the per-iteration method: every call
    # transfers to the continuation, so the trace records real fires
    location = q2_location(module, benchmark)
    insert_resolved_osr_point(
        location.function, location, HotCounterCondition(1), engine=engine,
    )
    checksum = engine.run(benchmark.entry, *benchmark.args)
    # the same program once more, promoting on a second caller thread
    second = ExecutionEngine(compile_benchmark(benchmark, LEVEL),
                             tier="tiered", call_threshold=CALL_THRESHOLD,
                             telemetry=telemetry)
    results: List[object] = []
    caller = threading.Thread(target=lambda: results.append(
        second.run(benchmark.entry, *benchmark.args)), name="smoke-caller")
    caller.start()
    caller.join()
    if not results:
        raise RuntimeError("the second caller's run raised (traceback above)")

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
