"""Q2 — run-time cost of an OSR transition (paper Table 2).

For each benchmark, a *resolved* OSR point is inserted at the entry of
the per-iteration method (the paper either extracts the hot loop body
into a function or instruments the method the loop calls; our suite's
sources already carry those helper methods).  Two configurations run:

* **always-firing**: the condition fires on the first check of every
  invocation, transferring to a continuation of the function itself
  (the same code, entered at the OSR point) — so every call pays one
  full OSR transition;
* **never-firing**: identical machinery, unreachable threshold.

The difference in total running time, divided by the number of fired
transitions, estimates the cost of one transition — the paper's numbers
are nanoseconds on hardware; under the Python-JIT substrate they are
larger in absolute terms but equally *negligible relative to a function
call*, which is the property the experiment establishes.

Fired transitions are counted through the telemetry layer: the engine's
``osr.fire`` probe observes every entry into the tagged continuation, so
the experiment needs no bespoke interposer (both configurations carry
the same telemetry machinery, keeping the subtraction fair).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from ..analysis.manager import default_manager
from ..core import HotCounterCondition, insert_resolved_osr_point
from ..obs import events as EV
from ..obs import local_telemetry
from ..shootout import SUITE, all_benchmarks, compile_benchmark
from ..vm import ExecutionEngine
from .sites import q2_location
from .stats import TimingResult, time_run


class Q2Row(NamedTuple):
    benchmark: str
    level: str
    fired_osrs: int       #: transitions per workload run
    live_values: int      #: values transferred at the OSR point
    always: TimingResult
    never: TimingResult

    @property
    def per_transition(self) -> float:
        """Estimated seconds per OSR transition (best-trial difference)."""
        if not self.fired_osrs:
            return 0.0
        return (self.always.best - self.never.best) / self.fired_osrs


def _instrument(module, benchmark, engine, threshold: int):
    location = q2_location(module, benchmark)
    func = location.function
    # shares the cached liveness with the OSR insertion right below
    live = default_manager().liveness(func).live_before(location)
    result = insert_resolved_osr_point(
        func, location, HotCounterCondition(threshold), engine=engine
    )
    return result, len(live)


def run_q2(
    level: str = "unoptimized",
    trials: int = 3,
    names: Optional[List[str]] = None,
) -> List[Q2Row]:
    rows: List[Q2Row] = []
    benchmarks = all_benchmarks() if names is None else [
        SUITE[name] for name in names
    ]
    for benchmark in benchmarks:
        args = benchmark.args

        # always-firing: threshold 1 fires on the first check of each call
        always_module = compile_benchmark(benchmark, level)
        always_telemetry = local_telemetry()
        always_engine = ExecutionEngine(always_module, tier="jit",
                                        telemetry=always_telemetry)
        result, live_count = _instrument(
            always_module, benchmark, always_engine, threshold=1
        )
        always = time_run(
            lambda: always_engine.run(benchmark.entry, *args), trials=trials
        )
        # the engine's telemetry probe saw every transfer into the tagged
        # continuation; warmup + trials runs happened
        fired_total = sum(
            1 for e in always_telemetry.events
            if e["name"] == EV.OSR_FIRE
        )
        fired_per_run = fired_total // (trials + 1)

        never_module = compile_benchmark(benchmark, level)
        never_engine = ExecutionEngine(never_module, tier="jit",
                                       telemetry=local_telemetry())
        _instrument(never_module, benchmark, never_engine,
                    threshold=HotCounterCondition.NEVER)
        never = time_run(
            lambda: never_engine.run(benchmark.entry, *args), trials=trials
        )

        rows.append(Q2Row(
            benchmark.name, level, fired_per_run, live_count, always, never
        ))
    return rows


def format_q2(rows: List[Q2Row]) -> str:
    """Render rows the way Table 2 reports them."""
    lines = [
        "Q2: cost of an OSR transition to a clone of the running function",
        f"{'benchmark':<14} {'fired OSRs':>12} {'live values':>12} "
        f"{'avg time/transition':>22}",
    ]
    for row in rows:
        micro = row.per_transition * 1e6
        lines.append(
            f"{row.benchmark:<14} {row.fired_osrs:>12,} "
            f"{row.live_values:>12} {micro:>18.3f} us"
        )
    return "\n".join(lines)
