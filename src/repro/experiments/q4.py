"""Q4 — feval optimization speedups in the mini-McVM (paper Table 4).

For each MATLAB benchmark, five configurations:

* **base (JIT)** — the default feval dispatcher; the dispatcher
  JIT-compiles the invoked function during the run (this is the 1.0x
  baseline);
* **base (cached)** — dispatcher calls a previously compiled function;
* **optimized (JIT)** — the OSR-based IIR-level specializer, paying
  continuation generation during the run;
* **optimized (cached)** — the continuation comes from the code cache;
* **direct (by hand)** — feval replaced with direct calls in the source
  (the upper bound).

Speedups are reported against base (JIT), as in Table 4.

Every configuration's VM carries a local telemetry; the per-run cost of
IIR-level specialization is read off the optimized (JIT) trace's
``feval.specialize`` spans rather than a bespoke timer, so the figure is
exactly what a traced production run would report.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..mcvm import McVM, q4_order
from ..mcvm.programs import Q4_BENCHMARKS, McBenchmark
from ..obs import events as EV
from ..obs import local_telemetry
from .stats import TimingResult, span_total, time_run


class Q4Row(NamedTuple):
    benchmark: str
    base_jit: TimingResult
    base_cached: TimingResult
    optimized_jit: TimingResult
    optimized_cached: TimingResult
    direct: TimingResult
    #: {"count", "total", "mean"} for feval.specialize spans observed in
    #: the optimized (JIT) configuration (seconds); None pre-telemetry
    specialize: Optional[Dict[str, float]] = None

    def speedups(self) -> Dict[str, float]:
        """Speedups over the base (JIT) configuration, Table 4 style
        (best-trial based, robust to interference)."""
        baseline = self.base_jit.best
        return {
            "base (cached)": baseline / self.base_cached.best,
            "optimized (JIT)": baseline / self.optimized_jit.best,
            "optimized (cached)": baseline / self.optimized_cached.best,
            "direct (by hand)": baseline / self.direct.best,
        }


def _time_vm(benchmark: McBenchmark, source: str, enable_osr: bool,
             cached: bool, trials: int) -> Tuple[TimingResult, object]:
    telemetry = local_telemetry()
    vm = McVM(source, enable_osr=enable_osr, telemetry=telemetry)
    steps = benchmark.steps

    if cached:
        # warm every cache (compiled versions, dispatch targets, OSR
        # continuations), then time steady-state runs
        vm.run(benchmark.entry, steps)
        return time_run(lambda: vm.run(benchmark.entry, steps),
                        trials=trials, warmup=1), telemetry

    # "JIT" configuration: pay feval-related compilation inside the run.
    # The entry function itself stays compiled (the paper times the
    # dispatcher/optimizer work, not the whole-program pipeline).
    vm.run(benchmark.entry, steps)

    def run_with_cold_feval():
        vm.clear_feval_caches()
        return vm.run(benchmark.entry, steps)

    return time_run(run_with_cold_feval, trials=trials, warmup=1), telemetry


def _specialize_stats(telemetry) -> Dict[str, float]:
    """Per-trace ``feval.specialize`` span stats (count/total/mean secs)."""
    count = sum(
        1 for e in telemetry.events if e["name"] == EV.FEVAL_SPECIALIZE
    )
    total = span_total(telemetry, EV.FEVAL_SPECIALIZE)
    return {
        "count": float(count),
        "total": total,
        "mean": total / count if count else 0.0,
    }


def run_q4(trials: int = 3, names: Optional[List[str]] = None) -> List[Q4Row]:
    rows: List[Q4Row] = []
    benchmarks = q4_order() if names is None else [
        Q4_BENCHMARKS[name] for name in names
    ]
    for benchmark in benchmarks:
        base_jit, _ = _time_vm(benchmark, benchmark.source, False, False,
                               trials)
        base_cached, _ = _time_vm(benchmark, benchmark.source, False, True,
                                  trials)
        optimized_jit, opt_telemetry = _time_vm(
            benchmark, benchmark.source, True, False, trials)
        optimized_cached, _ = _time_vm(benchmark, benchmark.source, True,
                                       True, trials)
        direct, _ = _time_vm(benchmark, benchmark.direct_source, False, True,
                             trials)
        rows.append(Q4Row(
            benchmark.name, base_jit, base_cached, optimized_jit,
            optimized_cached, direct,
            specialize=_specialize_stats(opt_telemetry),
        ))
    return rows


def format_q4(rows: List[Q4Row]) -> str:
    """Render rows the way Table 4 reports them (speedup vs base JIT)."""
    lines = [
        "Q4: speedup comparison for feval optimization "
        "(baseline: default dispatcher, JIT)",
        f"{'benchmark':<10} {'base(cached)':>13} {'opt(JIT)':>10} "
        f"{'opt(cached)':>12} {'direct':>8}",
    ]
    for row in rows:
        sp = row.speedups()
        line = (
            f"{row.benchmark:<10} {sp['base (cached)']:>12.3f}x "
            f"{sp['optimized (JIT)']:>9.3f}x "
            f"{sp['optimized (cached)']:>11.3f}x "
            f"{sp['direct (by hand)']:>7.3f}x"
        )
        if row.specialize and row.specialize["count"]:
            line += (
                f"   [specialize: {row.specialize['count']:.0f}x, "
                f"avg {row.specialize['mean'] * 1e6:.1f} us]"
            )
        lines.append(line)
    return "\n".join(lines)
