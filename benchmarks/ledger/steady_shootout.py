"""steady_shootout: repeated runs on engines built and warmed in set-up,
so ``vm`` execution is all that is timed."""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from repro.experiments import instrument_never_firing
from repro.ir import parse_module
from repro.vm import ExecutionEngine

from . import clock
from .common import build
from .expected import SEQUENCE_LENGTH
from .harness import Op, Run
from .stats import geomean, median, summarize

NAME = "steady_shootout"
ARGS = {"b-trees": 7, "fannkuch": 6, "fasta": 10000, "fasta-redux": 10000,
        "mbrot": 32, "n-body": 400, "rev-comp": 6000, "sp-norm": 22}
#: arm -> engine tier; "osr" is the JIT with never-firing open OSR
#: points at the paper's Q1 sites
ARMS = {"jit": "jit", "decoded": "decoded", "tiered": "tiered", "osr": "jit"}
WARM_RUNS = 2
#: a reused engine's results are referenced this far (expected.json)
MAX_REPS = SEQUENCE_LENGTH - WARM_RUNS
CENSUS = {"fannkuch": 5}
CENSUS_REPS = 20
FLIGHT_PROGRAMS = ("fannkuch", "mbrot", "n-body", "sp-norm")


class Warmed:
    """One engine and how often it has run (the stateful programs'
    reference is a sequence indexed by that count)."""

    def __init__(self, name: str, arg: int, arm: str, **engine_options):
        self.name = name
        self.arg = arg
        self.bench, self.module = build(name)
        self.engine = ExecutionEngine(self.module, tier=ARMS[arm],
                                      **engine_options)
        if arm == "osr":
            instrument_never_firing(self.module, self.bench, self.engine)
        self.runs = 0

    def run(self, run: Run, metric: str) -> None:
        engine, bench = self.engine, self.bench
        call = run.tracer.call
        value = run.timed(metric, self.name, lambda: call(
            "vm.run", engine.run, bench.entry, self.arg))
        index, self.runs = self.runs, self.runs + 1
        run.expect("shootout", self.name, self.arg, value, index)


def setup(run: Run, inputs: Dict[str, int]) -> List[Op]:
    ops: List[Op] = []
    promotions = 0
    for name, arg in inputs.items():
        for arm in ARMS:
            warmed = Warmed(name, arg, arm)
            op = partial(Warmed.run, warmed, metric=f"steady_{arm}_ms")
            for _ in range(WARM_RUNS):
                run.warm(op)
            if arm == "tiered":
                counters = warmed.engine.stats_snapshot()["counters"]
                promotions += counters.get("tier.promote", 0)
            ops.append(op)
    run.counts["vm.promotions"] = promotions
    return ops


# -- per-layer --------------------------------------------------------------

_ONE_INSTRUCTION = "define i64 @leaf(i64 %x) {\nentry:\n  ret i64 %x\n}\n"


def _dispatch_us() -> float:
    """``run`` of a one-instruction function on a tiered engine after
    promotion: what one trip through the dispatcher costs."""
    engine = ExecutionEngine(parse_module(_ONE_INSTRUCTION), tier="tiered")
    for _ in range(64):  # past call_threshold: promoted to the JIT
        engine.run("leaf", 1)
    batch = 2000

    def region():
        for _ in range(batch):
            engine.run("leaf", 1)

    samples = [clock.timed(region)[2] for _ in range(7)]
    return median(samples) / batch * 1e6


def _flight_ratio() -> float:
    """``tiered`` with the always-on flight recorder over plain
    ``tiered``, interleaved run for run."""
    ratios = []
    for name in FLIGHT_PROGRAMS:
        arms = [(Warmed(name, ARGS[name], "tiered", flight=flight), [])
                for flight in (False, True)]
        for rep in range(WARM_RUNS + 5):
            for warmed, times in arms:
                sample = clock.timed(lambda: warmed.engine.run(
                    warmed.bench.entry, warmed.arg))[2]
                if rep >= WARM_RUNS:
                    times.append(sample)
        (_, plain), (_, flight) = arms
        ratios.append(median(flight) / median(plain))
    return geomean(ratios)


def layers(run: Run, layer_ms, e2e) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for arm in ("jit", "decoded"):
        per_program = summarize(
            run.reference_ms(f"steady_{arm}_ms"))["per_program"]
        for name in ARGS:
            out[f"vm.{arm}_run_ms.{name}"] = per_program[name]
    out["vm.decoded_vs_jit"] = e2e["steady_decoded_ms"] / e2e["steady_jit_ms"]
    out["vm.tiered_vs_jit"] = e2e["steady_tiered_ms"] / e2e["steady_jit_ms"]
    out["core.q1_never_ratio"] = e2e["steady_osr_ms"] / e2e["steady_jit_ms"]
    out["vm.promotions"] = run.counts["vm.promotions"]
    out["vm.dispatch_us"] = _dispatch_us()
    out["obs.flight_ratio"] = _flight_ratio()
    return out
