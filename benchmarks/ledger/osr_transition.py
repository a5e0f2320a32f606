"""osr_transition: the paper's mechanism at work.  Forward: insert a
resolved OSR point at the hottest-loop site of a fresh module, then run
until it fires mid-loop and the continuation finishes the call.
Backward: a speculative engine's first mispredicted call fails its guard
and OSR-exits to the baseline."""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from repro.core import (HotCounterCondition, insert_open_osr_point,
                        insert_resolved_osr_point)
from repro.experiments import loop_osr_location
from repro.ir import parse_module
from repro.obs import events, local_telemetry
from repro.vm import ExecutionEngine

from . import clock
from .common import build, count_calls, probe, span_ms
from .harness import Op, OpFailed, Run
from .stats import median

NAME = "osr_transition"
ARGS = {"b-trees": 5, "fannkuch": 6, "fasta": 3000, "fasta-redux": 3000,
        "mbrot": 12, "n-body": 200, "rev-comp": 3000, "sp-norm": 10}
THRESHOLD = 100
#: program -> (function holding the site, callee the site's loop must
#: call or None for the hottest loop, counter threshold).  The site is
#: the loop that makes >= threshold iterations within one invocation, so
#: the point fires mid-loop: `hottest_loop` alone would pick a 5-trip
#: inner loop in n-body, and b-trees' driver loop makes 32 trips.
SITES = {
    "b-trees": ("btrees", None, 16),
    "fannkuch": ("fannkuch", None, THRESHOLD),
    "fasta": ("fasta", None, THRESHOLD),
    "fasta-redux": ("fasta_redux", None, THRESHOLD),
    "mbrot": ("mbrot", None, THRESHOLD),
    "n-body": ("nbody", "nbody_advance", THRESHOLD),
    "rev-comp": ("revcomp", None, THRESHOLD),
    "sp-norm": ("spnorm_av", None, THRESHOLD),
}
MODE_SWITCH = "mode-switch"
MODE_SWITCH_IR = Path(__file__).resolve().parent / "mode_switch.ll"
MODE_SWITCH_N = 2000
SPECIALIZING_CALLS = 5
BACKWARD_PER_REP = 3
CENSUS = {"mbrot": 12}
CENSUS_REPS = 20


def site(func, callee, manager):
    """The instruction the OSR point goes before."""
    if callee is None:
        return loop_osr_location(func, am=manager)
    calling = [
        loop for loop in manager.loop_info(func).loops
        if any(getattr(getattr(inst, "callee", None), "name", None) == callee
               for block in loop.blocks for inst in block.instructions)
    ]
    header = max(calling, key=lambda loop: loop.depth).header
    return header.instructions[header.first_non_phi_index]


class Fresh(NamedTuple):
    """The untimed part of a forward rep: module, engine, site."""
    entry: str
    engine: ExecutionEngine
    func: object
    location: object
    threshold: int
    telemetry: Optional[object]

    def insert(self):
        return insert_resolved_osr_point(
            self.func, self.location, HotCounterCondition(self.threshold),
            engine=self.engine)


def fresh(run: Run, name: str) -> Fresh:
    bench, module = build(name, "unoptimized")
    telemetry = local_telemetry() if run.tracer.enabled else None
    options = {"telemetry": telemetry} if telemetry is not None else {}
    engine = ExecutionEngine(module, tier="jit", **options)
    function, callee, threshold = SITES[name]
    func = module.get_function(function)
    return Fresh(bench.entry, engine, func,
                 site(func, callee, engine.analysis), threshold, telemetry)


def forward(run: Run, name: str, arg: int) -> None:
    rep = fresh(run, name)
    call = run.tracer.call
    run.timed("osr_insert_ms", name,
              lambda: call("core.insert_resolved", rep.insert))
    value = run.timed("osr_fire_ms", name, lambda: call(
        "vm.run", rep.engine.run, rep.entry, arg))
    run.expect("shootout", name, arg, value)
    if rep.telemetry is not None:
        fires = sum(1 for event in rep.telemetry.events
                    if event["name"] == events.OSR_FIRE)
        if not fires:
            raise OpFailed(f"{name}: the OSR point never fired")
        if run.recording:
            run.counts[f"core.fires.{name}"] = fires


def specialized_engine(run: Run):
    """A speculative engine whose loop is specialized to mode 1."""
    engine = ExecutionEngine(parse_module(MODE_SWITCH_IR.read_text()),
                             tier="speculative", call_threshold=2)
    for _ in range(SPECIALIZING_CALLS):
        run.expect("mode_switch", "mode_switch", (1, MODE_SWITCH_N),
                   engine.run("mode_switch", 1, MODE_SWITCH_N))
    return engine


def backward(run: Run) -> None:
    engine = specialized_engine(run)
    call = run.tracer.call
    value = run.timed("deopt_first_ms", MODE_SWITCH, lambda: call(
        "vm.run", engine.run, "mode_switch", 2, MODE_SWITCH_N))
    run.expect("mode_switch", "mode_switch", (2, MODE_SWITCH_N), value)
    counters = engine.stats_snapshot()["counters"]
    if counters.get("deopt.exit", 0) != 1:
        raise OpFailed(f"mode switch: expected one deopt exit, {counters}")
    if run.recording:
        run.counts["spec.guard_fails"] = counters.get("deopt.guard_fail", 0)
        run.counts["spec.deopt_exits"] = counters["deopt.exit"]


def setup(run: Run, inputs: Dict[str, int]) -> List[Op]:
    ops: List[Op] = [partial(forward, name=name, arg=arg)
                     for name, arg in inputs.items()]
    # the backward op is a few ms and has one "program": on the full
    # set, three per repetition give it a forward metric's sample count
    ops += [backward] * (BACKWARD_PER_REP if len(inputs) > 1 else 1)
    for op in ops:
        run.warm(op)
    return ops


# -- per-layer --------------------------------------------------------------


def counted(run: Run) -> Dict[str, float]:
    out = {"core.resolved_insert.calls": 0, "core.continuation_insts": 0,
           "core.live_values": 0}
    for name in ARGS:
        calls, point = count_calls(fresh(run, name).insert)
        out["core.resolved_insert.calls"] += calls
        out["core.live_values"] += len(point.live_values)
        out["core.continuation_insts"] += sum(
            len(block.instructions) for block in point.continuation.blocks)
    return out


def _never(f, block, env, val):  # pragma: no cover - never fires
    raise AssertionError("never-firing OSR point fired")


def _open_insert(run: Run, name: str):
    rep = fresh(run, name)
    return lambda: insert_open_osr_point(
        rep.func, rep.location,
        HotCounterCondition(HotCounterCondition.NEVER), _never, rep.engine,
        env=None, val=None)


def layers(run: Run, layer_ms, e2e) -> Dict[str, float]:
    out = {
        "core.resolved_insert_ms": span_ms(layer_ms, "core.insert_resolved"),
        "core.open_insert_ms": probe(ARGS, lambda n: _open_insert(run, n)),
        "core.fires": sum(run.counts.get(f"core.fires.{n}", 0) for n in ARGS),
        "spec.guard_fails": run.counts.get("spec.guard_fails", 0),
        "spec.deopt_exits": run.counts.get("spec.deopt_exits", 0),
    }
    specialized, cached = [], []
    for _ in range(7):
        engine = specialized_engine(run)
        specialized.append(clock.timed(
            lambda: engine.run("mode_switch", 1, MODE_SWITCH_N))[2] * 1e3)
        engine.run("mode_switch", 2, MODE_SWITCH_N)
        cached.append(clock.timed(
            lambda: engine.run("mode_switch", 2, MODE_SWITCH_N))[2] * 1e3)
    out["spec.specialized_run_ms"] = median(specialized)
    out["spec.deopt_cached_ms"] = median(cached)
    return out
