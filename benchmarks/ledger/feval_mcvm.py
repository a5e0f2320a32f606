"""feval_mcvm: the Q4 MATLAB programs — parser, type inference, IIR
compiler, feval optimizer (boxed -> unboxed compensation) and the boxed
runtime."""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from repro.mcvm import McVM, Q4_BENCHMARKS, parse_matlab

from .common import count_calls, probe, span_ms
from .harness import Op, Run

NAME = "feval_mcvm"
#: program -> steps of a steady run; the cold arm runs a tenth of them
ARGS = {name: bench.steps for name, bench in Q4_BENCHMARKS.items()}
WARM_RUNS = 2
CENSUS = {"odeEuler": ARGS["odeEuler"] // 10}
CENSUS_REPS = 30


def cold_steps(steps: int) -> int:
    return steps // 10


def cold(run: Run, name: str, steps: int) -> None:
    bench = Q4_BENCHMARKS[name]
    call = run.tracer.call

    def region():
        vm = call("mcvm.construct", McVM, bench.source, enable_osr=True)
        return call("mcvm.first_run", vm.run, bench.entry, cold_steps(steps))

    value = run.timed("feval_cold_ms", name, region)
    run.expect("mcvm", name, cold_steps(steps), value)


def steady(run: Run, name: str, steps: int, metric: str, vm: McVM) -> None:
    bench = Q4_BENCHMARKS[name]
    call = run.tracer.call
    value = run.timed(metric, name, lambda: call(
        "mcvm.run", vm.run, bench.entry, steps))
    run.expect("mcvm", name, steps, value)


def setup(run: Run, inputs: Dict[str, int]) -> List[Op]:
    ops: List[Op] = []
    for name, steps in inputs.items():
        source = Q4_BENCHMARKS[name].source
        arms = [partial(cold, name=name, steps=steps)]
        for metric, enable_osr in (("feval_base_ms", False),
                                   ("feval_opt_ms", True)):
            vm = McVM(source, enable_osr=enable_osr)
            arms.append(partial(steady, name=name, steps=steps,
                                metric=metric, vm=vm))
        for op in arms:
            for _ in range(WARM_RUNS):
                run.warm(op)
        ops.extend(arms)
    return ops


# -- per-layer --------------------------------------------------------------


def counted(run: Run) -> Dict[str, float]:
    out = {"mcvm.first_run.calls": 0, "mcvm.versions_compiled": 0,
           "mcvm.feval_optimizations": 0}
    for name, steps in ARGS.items():
        bench = Q4_BENCHMARKS[name]
        vm = McVM(bench.source, enable_osr=True)
        calls, _ = count_calls(
            lambda: vm.run(bench.entry, cold_steps(steps)))
        out["mcvm.first_run.calls"] += calls
        out["mcvm.versions_compiled"] += vm.stats["versions_compiled"]
        out["mcvm.feval_optimizations"] += vm.stats["feval_optimizations"]
    return out


def layers(run: Run, layer_ms, e2e) -> Dict[str, float]:
    def interpreted(name):
        bench = Q4_BENCHMARKS[name]
        vm = McVM(bench.source)
        return lambda: vm.run_interpreted(bench.entry,
                                          cold_steps(ARGS[name]))

    return {
        "mcvm.construct_ms": span_ms(layer_ms, "mcvm.construct"),
        "mcvm.first_run_ms": span_ms(layer_ms, "mcvm.first_run"),
        "mcvm.parse_ms": probe(
            ARGS, lambda n: lambda: parse_matlab(Q4_BENCHMARKS[n].source)),
        "mcvm.interp_run_ms": probe(ARGS, interpreted, reps=3),
        "mcvm.q4_speedup": e2e["feval_base_ms"] / e2e["feval_opt_ms"],
    }
