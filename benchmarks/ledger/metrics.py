"""The ledger's vocabulary: workloads, end-to-end metrics, per-layer
metrics.  ``BENCHMARK.json`` at the repository root carries the same
names (a self-test keeps the two in step); a metric's *home* is the
workload that measures it on its full input set."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

SHOOTOUT = ("b-trees", "fannkuch", "fasta", "fasta-redux", "mbrot",
            "n-body", "rev-comp", "sp-norm")

WORKLOADS: Dict[str, str] = {
    "compile_cold": (
        "8 shootout programs on tiny args through compile_c, the optimized "
        "pipeline, a fresh engine and one run: compile-side work is nearly "
        "all of the time"),
    "process_start": (
        "one child process per op, source to result with no cache, an empty "
        "disk cache and a warm one: import and serve.diskcache dominate, "
        "compile layers are ~10 %"),
    "steady_shootout": (
        "8 programs at 20-45 ms per JIT run on engines warmed in set-up, "
        "four arms: vm execution is >= 97 % of the time, the bypass for "
        "compile-side changes"),
    "osr_transition": (
        "fresh module per rep: insert a resolved OSR point, run until it "
        "fires mid-loop, plus a speculative guard failure: core and spec do "
        "the work, forward beside backward"),
    "feval_mcvm": (
        "the 4 Q4 MATLAB programs cold, steady without and steady with the "
        "feval optimizer: mcvm and the boxed runtime do the work, shootout "
        "changes should not move it"),
}


class EndToEnd(NamedTuple):
    name: str
    home: Optional[str]   #: None = measured the same way on every workload
    bound: float          #: share of the parent's median it may worsen by
    unit: str = "ms"


END_TO_END: List[EndToEnd] = [
    EndToEnd("first_result_tiered_ms", "compile_cold", 0.10),
    EndToEnd("first_result_jit_ms", "compile_cold", 0.10),
    EndToEnd("start_nocache_ms", "process_start", 0.25),
    EndToEnd("start_cold_ms", "process_start", 0.25),
    EndToEnd("start_warm_ms", "process_start", 0.25),
    EndToEnd("steady_jit_ms", "steady_shootout", 0.10),
    EndToEnd("steady_decoded_ms", "steady_shootout", 0.10),
    EndToEnd("steady_tiered_ms", "steady_shootout", 0.10),
    EndToEnd("steady_osr_ms", "steady_shootout", 0.10),
    EndToEnd("osr_insert_ms", "osr_transition", 0.10),
    EndToEnd("osr_fire_ms", "osr_transition", 0.10),
    EndToEnd("deopt_first_ms", "osr_transition", 0.10),
    EndToEnd("feval_cold_ms", "feval_mcvm", 0.15),
    EndToEnd("feval_base_ms", "feval_mcvm", 0.10),
    EndToEnd("feval_opt_ms", "feval_mcvm", 0.10),
    EndToEnd("setup_s", None, 0.25, "s"),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    home: Optional[str]   #: None = reported by every workload
    exact: bool = False   #: must repeat exactly between two runs


def _layers() -> List[PerLayer]:
    low, high = "lower", "higher"
    cc, ps, st, osr, fe = WORKLOADS
    rows = [
        PerLayer("python.import_ms", "ms", low, ps),
        PerLayer("frontend.compile_c_ms", "ms", low, cc),
        PerLayer("frontend.calls", "count", low, cc, True),
        PerLayer("frontend.ir_insts", "count", low, cc, True),
        PerLayer("ir.verify_ms", "ms", low, cc),
        PerLayer("ir.print_ms", "ms", low, cc),
        PerLayer("ir.parse_ms", "ms", low, cc),
        PerLayer("analysis.liveness_ms", "ms", low, cc),
        PerLayer("analysis.dominators_ms", "ms", low, cc),
        PerLayer("analysis.loops_ms", "ms", low, cc),
        PerLayer("analysis.hit_ratio", "ratio", high, cc, True),
        PerLayer("transform.unoptimized_ms", "ms", low, cc),
        PerLayer("transform.optimized_ms", "ms", low, cc),
        PerLayer("transform.optimized.calls", "count", low, cc, True),
    ]
    rows += [PerLayer(f"transform.pass.{p}_ms", "ms", low, cc)
             for p in ("mem2reg", "scalarize", "constfold", "simplifycfg",
                       "dce")]
    rows += [
        PerLayer("transform.ir_insts_after", "count", low, cc, True),
        PerLayer("vm.jit_materialize_ms", "ms", low, cc),
        PerLayer("vm.jit_materialize.calls", "count", low, cc, True),
        PerLayer("vm.decode_materialize_ms", "ms", low, cc),
        PerLayer("vm.decode_materialize.calls", "count", low, cc, True),
        PerLayer("vm.rematerialize_ms", "ms", low, cc),
        PerLayer("vm.first_run_ms", "ms", low, cc),
    ]
    rows += [PerLayer(f"vm.jit_run_ms.{p}", "ms", low, st) for p in SHOOTOUT]
    rows += [PerLayer(f"vm.decoded_run_ms.{p}", "ms", low, st)
             for p in SHOOTOUT]
    rows += [
        PerLayer("vm.decoded_vs_jit", "ratio", low, st),
        PerLayer("vm.tiered_vs_jit", "ratio", low, st),
        PerLayer("vm.dispatch_us", "us", low, st),
        PerLayer("vm.promotions", "count", high, st, True),
        PerLayer("core.open_insert_ms", "ms", low, osr),
        PerLayer("core.resolved_insert_ms", "ms", low, osr),
        PerLayer("core.resolved_insert.calls", "count", low, osr, True),
        PerLayer("core.live_values", "count", low, osr, True),
        PerLayer("core.continuation_insts", "count", low, osr, True),
        PerLayer("core.fires", "count", high, osr, True),
        PerLayer("core.q1_never_ratio", "ratio", low, st),
        PerLayer("spec.specialized_run_ms", "ms", low, osr),
        PerLayer("spec.deopt_cached_ms", "ms", low, osr),
        PerLayer("spec.guard_fails", "count", low, osr, True),
        PerLayer("spec.deopt_exits", "count", low, osr, True),
        PerLayer("mcvm.parse_ms", "ms", low, fe),
        PerLayer("mcvm.construct_ms", "ms", low, fe),
        PerLayer("mcvm.first_run_ms", "ms", low, fe),
        PerLayer("mcvm.first_run.calls", "count", low, fe, True),
        PerLayer("mcvm.interp_run_ms", "ms", low, fe),
        PerLayer("mcvm.versions_compiled", "count", low, fe, True),
        PerLayer("mcvm.feval_optimizations", "count", high, fe, True),
        PerLayer("mcvm.q4_speedup", "ratio", high, fe),
        PerLayer("serve.diskcache.store_ms", "ms", low, ps),
        PerLayer("serve.diskcache.load_ms", "ms", low, ps),
        PerLayer("serve.diskcache.writes", "count", low, ps, True),
        PerLayer("serve.diskcache.hits", "count", high, ps, True),
        PerLayer("serve.diskcache.misses", "count", low, ps, True),
        PerLayer("serve.diskcache.entry_bytes", "bytes", low, ps, True),
        PerLayer("serve.warm_vs_nocache", "ratio", low, ps),
        PerLayer("obs.flight_ratio", "ratio", low, st),
        PerLayer("obs.trace_overhead", "ratio", low, None),
        PerLayer("trace.closure_error", "ratio", low, None),
        PerLayer("proc.speed_factor", "ratio", low, None),
        PerLayer("proc.peak_rss_mb", "MB", low, None),
    ]
    return rows


PER_LAYER: List[PerLayer] = _layers()

E2E_BY_NAME = {m.name: m for m in END_TO_END}
LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def home_metrics(workload: str) -> List[str]:
    """The timed end-to-end metrics a workload measures at full size."""
    return [m.name for m in END_TO_END if m.home == workload]
