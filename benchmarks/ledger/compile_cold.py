"""compile_cold: source -> first result on inputs so small that
frontend, transform and decode/codegen do nearly all the work."""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from repro.analysis.manager import AnalysisManager
from repro.frontend import compile_c
from repro.ir import parse_module, print_module, verify_module
from repro.shootout import SUITE
from repro.transform import PIPELINES, PassManager
from repro.vm import ExecutionEngine

from . import clock
from .common import build, count_calls, defined, ir_insts, probe, span_ms
from .harness import Op, Run
from .stats import geomean, median

NAME = "compile_cold"
ARGS = {"b-trees": 3, "fannkuch": 4, "fasta": 300, "fasta-redux": 300,
        "mbrot": 6, "n-body": 20, "rev-comp": 300, "sp-norm": 4}
ARMS = ("tiered", "jit")
#: what other workloads' runs measure these metrics on (see runner)
CENSUS = {"mbrot": 6}
CENSUS_REPS = 20
#: programs whose printed optimized IR parses back: the front end names
#: float temporaries ``%f+`` / ``%f/``, which the IR lexer rejects, so
#: mbrot, n-body and sp-norm cannot make the print -> parse round trip
ROUND_TRIP = ("b-trees", "fannkuch", "fasta", "fasta-redux", "rev-comp")


def first_result(run: Run, name: str, arg: int, tier: str) -> None:
    bench = SUITE[name]
    call = run.tracer.call

    def region():
        module = call("frontend.compile_c", compile_c, bench.source,
                      module_name=bench.name)
        call("transform.optimized",
             PassManager.pipeline("optimized").run_module, module)
        engine = call("vm.engine", ExecutionEngine, module, tier=tier)
        return call("vm.first_run", engine.run, bench.entry, arg)

    value = run.timed(f"first_result_{tier}_ms", name, region)
    run.expect("shootout", name, arg, value)


def setup(run: Run, inputs: Dict[str, int]) -> List[Op]:
    ops = [partial(first_result, name=name, arg=arg, tier=tier)
           for name, arg in inputs.items() for tier in ARMS]
    for op in ops:  # lazy imports, interned constants, pass registries
        run.warm(op)
    return ops


# -- per-layer --------------------------------------------------------------


def counted(run: Run) -> Dict[str, float]:
    """Exact counts, taken first in a traced run so they see the same
    process state every time."""
    out = dict.fromkeys(
        ("frontend.calls", "frontend.ir_insts", "transform.optimized.calls",
         "transform.ir_insts_after", "vm.jit_materialize.calls",
         "vm.decode_materialize.calls"), 0)
    manager = AnalysisManager()
    for name in ARGS:
        bench = SUITE[name]
        calls, module = count_calls(
            lambda: compile_c(bench.source, module_name=bench.name))
        out["frontend.calls"] += calls
        out["frontend.ir_insts"] += ir_insts(module)
        calls, _ = count_calls(
            lambda: PassManager.pipeline("optimized").run_module(module))
        out["transform.optimized.calls"] += calls
        out["transform.ir_insts_after"] += ir_insts(module)
        for tier, key in (("jit", "vm.jit_materialize.calls"),
                          ("decoded", "vm.decode_materialize.calls")):
            _, fresh = build(name)
            engine = ExecutionEngine(fresh, tier=tier)
            calls, _ = count_calls(
                lambda: [engine.get_compiled(f) for f in defined(fresh)])
            out[key] += calls
        # the pipeline's own use of the analysis cache, on a private
        # manager so nothing else has touched the counters
        private = compile_c(bench.source, module_name=bench.name)
        PassManager.pipeline("optimized").run_module(private, manager)
    stats = manager.stats()
    queries = stats["hits"] + stats["misses"]
    out["analysis.hit_ratio"] = stats["hits"] / queries if queries else 0.0
    return out


def _materialize(name: str, tier: str):
    _, module = build(name)
    engine = ExecutionEngine(module, tier=tier)
    return lambda: [engine.get_compiled(f) for f in defined(module)]


def _rematerialize(name: str):
    _, module = build(name)
    functions = defined(module)
    first = ExecutionEngine(module, tier="jit")
    for func in functions:
        first.get_compiled(func)
    second = ExecutionEngine(module, tier="jit")
    return lambda: [second.get_compiled(f) for f in functions]


def _analysis(name: str, query: str):
    _, module = build(name)
    manager = AnalysisManager()
    ask = getattr(manager, query)
    return lambda: [ask(f) for f in defined(module)]


def _pipeline(name: str, passes):
    bench = SUITE[name]
    module = compile_c(bench.source, module_name=bench.name)
    return lambda: PassManager(passes).run_module(module)


def _single_passes(name: str) -> Dict[str, float]:
    """Each pass of the optimized pipeline through a manager of its own,
    in pipeline order on one module; a pass that runs twice adds up."""
    bench = SUITE[name]
    module = compile_c(bench.source, module_name=bench.name)
    totals: Dict[str, float] = {}
    for pass_name in PIPELINES["optimized"]:
        manager = PassManager([pass_name])
        ms = clock.timed(lambda: manager.run_module(module))[2] * 1e3
        key = pass_name.split("+")[0]  # "dce+blocks" is dce
        totals[key] = totals.get(key, 0.0) + ms
    return totals


def layers(run: Run, layer_ms, e2e) -> Dict[str, float]:
    names = list(ARGS)
    out = {
        "frontend.compile_c_ms": span_ms(layer_ms, "frontend.compile_c"),
        "vm.first_run_ms": span_ms(layer_ms, "vm.first_run"),
        "transform.optimized_ms": probe(
            names, lambda n: _pipeline(n, PIPELINES["optimized"])),
        "transform.unoptimized_ms": probe(
            names, lambda n: _pipeline(n, PIPELINES["unoptimized"])),
        "vm.jit_materialize_ms": probe(
            names, lambda n: _materialize(n, "jit")),
        "vm.decode_materialize_ms": probe(
            names, lambda n: _materialize(n, "decoded")),
        "vm.rematerialize_ms": probe(names, _rematerialize),
        "analysis.liveness_ms": probe(
            names, lambda n: _analysis(n, "liveness")),
        "analysis.dominators_ms": probe(
            names, lambda n: _analysis(n, "dominator_tree")),
        "analysis.loops_ms": probe(
            names, lambda n: _analysis(n, "loop_info")),
    }

    modules = {n: build(n)[1] for n in names}
    texts = {n: print_module(modules[n]) for n in ROUND_TRIP}
    out["ir.verify_ms"] = probe(
        names, lambda n: lambda: verify_module(modules[n]))
    out["ir.print_ms"] = probe(
        names, lambda n: lambda: print_module(modules[n]))
    out["ir.parse_ms"] = probe(
        ROUND_TRIP, lambda n: lambda: parse_module(texts[n]))

    per_pass: Dict[str, List[float]] = {}
    for name in names:
        samples: Dict[str, List[float]] = {}
        for _ in range(3):
            for key, ms in _single_passes(name).items():
                samples.setdefault(key, []).append(ms)
        for key, values in samples.items():
            per_pass.setdefault(key, []).append(median(values))
    for key, values in per_pass.items():
        out[f"transform.pass.{key}_ms"] = geomean(values)
    return out
