"""One workload, one process: set-up, the timed loop, the census, and —
for a traced run — counts, spans and layer probes."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import time
from pathlib import Path
from typing import Dict, List

from . import (clock, compile_cold, feval_mcvm, osr_transition,
               process_start, steady_shootout)
from .harness import Run, settle
from .metrics import END_TO_END, PER_LAYER, WORKLOADS, home_metrics
from .spans import layer_self_ms, op_closure
from .stats import geomean, median, summarize

SECTIONS = {s.NAME: s for s in (compile_cold, process_start,
                                steady_shootout, osr_transition, feval_mcvm)}
assert list(SECTIONS) == list(WORKLOADS)


#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: repetitions made even when ``--seconds`` are up
MIN_REPS = 2
#: share of ``--seconds`` a traced run gives each of its two passes
TRACED_SHARE = 0.25
#: the stage self times of an op must add up to its wall time this well
CLOSURE_TOLERANCE = 0.05

ROOT = Path(__file__).resolve().parents[2]


def timed_setup(run: Run, section) -> tuple:
    """Set the workload up once; returns ``(ops, reference seconds)``.
    One wide bracket for the whole of it: set-up lasts up to seconds and
    spans several machine speeds, which is why it runs three times."""
    ops, _, reference_s = clock.timed(
        lambda: section.setup(run, section.ARGS), clock.WIDE_UNITS)
    return ops, reference_s


def env_block(seed: int, seconds: float, reps: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "repetitions": reps,
        "git_sha": sha,
        "reference_unit_s": clock.REFERENCE_UNIT_S,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own / 1024.0  # Linux reports kilobytes


def end_to_end(run: Run, setup_s: float) -> Dict[str, dict]:
    """Every end-to-end metric from the samples gathered so far."""
    out: Dict[str, dict] = {}
    for metric in END_TO_END:
        if metric.name == "setup_s":
            out[metric.name] = {"value": setup_s, "unit": "s"}
            continue
        per_program = run.samples.get(metric.name)
        if not per_program:
            out[metric.name] = {"value": 0.0, "unit": metric.unit,
                                "samples": 0}
            continue
        figures = summarize(run.reference_ms(metric.name))
        figures["unit"] = metric.unit
        figures["raw_value"] = geomean(
            median(raw for _, raw in samples)
            for samples in per_program.values())
        out[metric.name] = figures
    return out


def speed_factor(run: Run) -> float:
    """Median wall / reference time over every sample of the run: how
    much slower than the reference machine this one was running."""
    return median(raw / ref for per_program in run.samples.values()
                  for samples in per_program.values()
                  for ref, raw in samples)


def census_schedule(run: Run, home, smoke: bool) -> List:
    """Every other section's census ops, set up and laid out so that each
    section's repetitions are spread evenly from the first to the last
    position (the loop then spreads the positions evenly over time)."""
    placed = []
    for other in SECTIONS.values():
        if other is home:
            continue
        ops = other.setup(run, other.CENSUS)
        reps = 1 if smoke else other.CENSUS_REPS
        for rep in range(reps):
            run.rng.shuffle(ops)
            placed.extend(((rep + 0.5) / reps, op) for op in ops)
    placed.sort(key=lambda entry: entry[0])
    return [op for _, op in placed]


def measure(workload: str, seed: int, seconds: float,
            smoke: bool = False) -> dict:
    """The untraced run: every end-to-end metric.  The workload's own
    metrics come from its full input set measured for ``seconds``; the
    others from the census (one program, a fixed number of repetitions),
    because the builder's contract has every run report every metric.
    ``smoke`` does everything once: every code path, in seconds."""
    run = Run(seed)
    section = SECTIONS[workload]
    began = time.perf_counter()
    try:
        setups = []
        for _ in range(1 if smoke else SETUP_REPEATS):
            ops, setup_s = timed_setup(run, section)
            setups.append(setup_s)
        census = census_schedule(run, section, smoke)
        settle()
        ready = time.perf_counter()
        reps = run.repeat(ops, seconds, min_reps=1 if smoke else MIN_REPS,
                          max_reps=getattr(section, "MAX_REPS", 10 ** 9),
                          side=census)
        metrics = end_to_end(run, median(setups))
    finally:
        run.close()
    return {
        "workload": workload,
        "trace": 0,
        "env": env_block(seed, seconds, reps),
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "setup_samples_s": setups,
        "wall_s": {"set_up": ready - began,
                   "measuring": time.perf_counter() - ready},
        "speed_factor": speed_factor(run) if run.samples else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "metrics": metrics,
    }


def trace(workload: str, seed: int, seconds: float,
          smoke: bool = False) -> dict:
    """The traced run: every per-layer metric of this workload's layers
    (0 for layers its ops never enter), plus the spans themselves."""
    run = Run(seed)
    section = SECTIONS[workload]
    share = seconds * TRACED_SHARE
    loop = {"min_reps": 1 if smoke else MIN_REPS,
            "max_reps": getattr(section, "MAX_REPS", 10 ** 9) // 2}
    try:
        # exact counts first: they then meet the same process state
        # in every run
        counted = getattr(section, "counted", None)
        layers: Dict[str, float] = dict(counted(run)) if counted else {}
        ops, setup_s = timed_setup(run, section)
        settle()
        reps = run.repeat(ops, share, **loop)
        untraced = end_to_end(run, setup_s)
        plain, run.samples = run.samples, {}
        tracer = run.trace()
        run.repeat(ops, share, **loop)
        run.untrace()
        traced = end_to_end(run, setup_s)
        run.samples = plain  # layer figures read the untraced pass
        home = home_metrics(workload)
        if all(untraced[n]["value"] and traced[n]["value"] for n in home):
            # (a metric without a sample means failed ops: already counted)
            e2e = {name: figures["value"]
                   for name, figures in untraced.items()}
            layers.update(section.layers(
                run, layer_self_ms(tracer.spans), e2e))
            layers["obs.trace_overhead"] = geomean(
                traced[n]["value"] / untraced[n]["value"] for n in home)
            layers["proc.speed_factor"] = speed_factor(run)
        closure = op_closure(tracer.spans)
        worst = max(abs(ratio - 1.0) for ratio in closure.values())
        layers["trace.closure_error"] = worst
        layers["proc.peak_rss_mb"] = peak_rss_mb()
    finally:
        run.close()
    if worst > CLOSURE_TOLERANCE:
        run.failed += 1
        run.failures.append(
            f"stage self times miss op wall time by {worst:.1%}")
    metrics = {
        layer.name: {"value": float(layers.get(layer.name, 0.0)),
                     "unit": layer.unit}
        for layer in PER_LAYER}
    return {
        "workload": workload,
        "trace": 1,
        "env": env_block(seed, seconds, reps),
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "metrics": metrics,
        "spans": tracer.spans,
    }


def contract_line(result: dict) -> dict:
    """The one JSON object the driver reads from the last stdout line."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": figures["value"],
                           "unit": figures["unit"]}
                    for name, figures in result["metrics"].items()},
    }
