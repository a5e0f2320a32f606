"""Observability overhead benchmarks: the cost of always-on telemetry.

The production claim behind :func:`repro.obs.production_telemetry` is
that a ``tiered`` engine can keep the flight recorder and the
histogram-backed timers attached permanently — so the claim needs a
number: this benchmark runs the shootout suite twice per workload, once
with telemetry off (a sinkless ``Telemetry(tracer=None)``, what an
untraced engine owns) and once on the always-on production telemetry,
and asserts the suite-mean
overhead stays within the budget (``MAX_OVERHEAD``, 5%).

The timed batches alternate off/on within each trial so clock and load
drift hits both configurations identically; checksums are compared so
a mis-timed run can never silently pass.

Alongside the overhead table the run reports the latency distributions
the production telemetry exists to collect, pulled straight off the
"on" engines' shared registry:

* ``engine.dispatch`` — per-top-level-call latency (a dedicated
  many-call phase over a small straight-line function populates the
  histogram with enough samples for a meaningful p99);
* ``jit.compile`` — synchronous compile spans across the suite.

Runs standalone through ``python -m benchmarks obs --json ...``, via
``make bench-obs``, and as a pytest-benchmark case.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.ir import parse_module
from repro.obs import Telemetry, production_telemetry
from repro.obs import events as EV
from repro.shootout import SUITE, compile_benchmark
from repro.vm import ExecutionEngine

#: suite-mean overhead budget for always-on flight + histograms
MAX_OVERHEAD = 1.05

#: calls in the dedicated dispatch-latency phase
DISPATCH_CALLS = 2000


class ObsRow(NamedTuple):
    workload: str
    off_s: float         #: batch seconds, sinkless telemetry
    on_s: float          #: batch seconds, production telemetry attached
    overhead: float      #: on_s / off_s
    events: int          #: events the flight ring recorded for this row
    checksum: object


def _suite_cases(smoke: bool) -> List[Tuple[str, Tuple]]:
    if smoke:
        return [("n-body", (200,)), ("fannkuch", (6,))]
    return [(name, SUITE[name].args) for name in sorted(SUITE)]


def _engine_pair(benchmark_name: str, telemetry_on):
    """Fresh off/on engines for one workload (independent modules — the
    decoded tier and OSR machinery mutate functions in place)."""
    benchmark = SUITE[benchmark_name]
    engines = {}
    for mode, telemetry in (("off", Telemetry(tracer=None)),
                            ("on", telemetry_on)):
        module = compile_benchmark(benchmark, "unoptimized")
        engines[mode] = ExecutionEngine(module, tier="tiered",
                                        call_threshold=2,
                                        telemetry=telemetry)
    return benchmark, engines


def run_obs(trials: int = 3, smoke: bool = False
            ) -> Tuple[List[ObsRow], Dict[str, object]]:
    """Off-vs-on overhead per workload plus the latency summary.

    Returns ``(rows, latency)`` where ``latency`` holds the percentile
    snapshots of the timers the "on" engines populated.
    """
    if smoke:
        trials = 1
    telemetry = production_telemetry()
    rows: List[ObsRow] = []
    for name, args in _suite_cases(smoke):
        benchmark, engines = _engine_pair(name, telemetry)
        # warm both engines past the promotion threshold so the timed
        # batches compare steady-state dispatch, not compile cost
        checksums: Dict[str, object] = {}
        for mode, engine in engines.items():
            for _ in range(3):
                checksums[mode] = engine.run(benchmark.entry, *args)
        assert checksums["off"] == checksums["on"], (name, checksums)
        events_before = telemetry.flight.recorded
        bests: Dict[str, Optional[float]] = {"off": None, "on": None}
        for _ in range(trials):
            for mode, engine in engines.items():
                start = time.perf_counter()
                checksums[mode] = engine.run(benchmark.entry, *args)
                elapsed = time.perf_counter() - start
                if bests[mode] is None or elapsed < bests[mode]:
                    bests[mode] = elapsed
        assert checksums["off"] == checksums["on"], (name, checksums)
        rows.append(ObsRow(
            workload=name,
            off_s=bests["off"],
            on_s=bests["on"],
            overhead=(bests["on"] / bests["off"] if bests["off"] else 0.0),
            events=telemetry.flight.recorded - events_before,
            checksum=checksums["on"],
        ))
    latency = _latency_summary(telemetry, trials)
    return rows, latency


# -- dispatch-latency phase ----------------------------------------------------

_DISPATCH_SOURCE = """
define i64 @tick(i64 %x) {
entry:
  %a = add i64 %x, 3
  %m = mul i64 %a, 5
  %s = sub i64 %m, 7
  ret i64 %s
}
"""


def _latency_summary(telemetry, trials: int) -> Dict[str, object]:
    """Populate ``engine.dispatch`` with a many-call phase, then report
    the percentile snapshots of every timer the run filled in."""
    module = parse_module(_DISPATCH_SOURCE)
    engine = ExecutionEngine(module, tier="tiered", call_threshold=2,
                             telemetry=telemetry)
    for _ in range(DISPATCH_CALLS):
        engine.run("tick", 11)
    summary: Dict[str, object] = {"dispatch_calls": DISPATCH_CALLS}
    for timer in (EV.ENGINE_DISPATCH, EV.JIT_COMPILE, EV.COMPILE_WAIT,
                  EV.DEOPT_TRANSITION):
        stats = telemetry.metrics.timer_stats(timer)
        if stats is not None:
            summary[timer] = stats
    summary["flight"] = telemetry.flight.stats()
    return summary


# -- reporting -----------------------------------------------------------------

def format_obs(rows: List[ObsRow], latency: Dict[str, object]) -> str:
    header = (f"{'workload':<14} {'off':>12} {'on':>12} {'overhead':>9} "
              f"{'events':>8}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.workload:<14} {r.off_s:>12.6f} {r.on_s:>12.6f} "
            f"{r.overhead:>8.3f}x {r.events:>8}"
        )
    mean = suite_mean_overhead(rows)
    lines.append(f"{'suite mean':<14} {'':>12} {'':>12} {mean:>8.3f}x "
                 f"(budget {MAX_OVERHEAD:.2f}x)")
    for timer in (EV.ENGINE_DISPATCH, EV.JIT_COMPILE, EV.COMPILE_WAIT,
                  EV.DEOPT_TRANSITION):
        stats = latency.get(timer)
        if not stats:
            continue
        lines.append(
            f"{timer:<18} n={stats['count']:<6} "
            f"p50={stats['p50'] * 1e6:>9.1f}us "
            f"p99={stats['p99'] * 1e6:>9.1f}us "
            f"max={stats['max'] * 1e6:>9.1f}us"
        )
    flight = latency.get("flight")
    if flight:
        lines.append(
            f"flight ring: {flight['buffered']}/{flight['capacity']} "
            f"buffered, {flight['recorded']} recorded, "
            f"{flight['dropped']} dropped"
        )
    return "\n".join(lines)


def suite_mean_overhead(rows: List[ObsRow]) -> float:
    if not rows:
        return 0.0
    return sum(r.overhead for r in rows) / len(rows)


# -- pytest-benchmark case -----------------------------------------------------

def test_observability_overhead_within_budget(benchmark):
    rows, latency = benchmark.pedantic(lambda: run_obs(trials=3),
                                       rounds=1, iterations=1)
    from .conftest import report

    report("Observability — always-on telemetry overhead",
           format_obs(rows, latency))
    assert suite_mean_overhead(rows) <= MAX_OVERHEAD, rows
    # the production telemetry must have captured real distributions
    dispatch = latency[EV.ENGINE_DISPATCH]
    assert dispatch["count"] >= DISPATCH_CALLS
    assert dispatch["p50"] <= dispatch["p99"] <= dispatch["max"]
    assert latency[EV.JIT_COMPILE]["count"] > 0
