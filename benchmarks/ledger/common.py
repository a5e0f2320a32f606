"""Helpers the workload sections share: building a module through the
public front end, counting IR, counting Python-level calls, and timing a
probe for a per-layer metric."""

from __future__ import annotations

import sys
from typing import Callable, Dict, Iterable, List, Tuple

from repro.shootout import SUITE, compile_benchmark

from . import clock
from .stats import geomean, median

#: samples per program behind a per-layer probe figure
PROBE_REPS = 5


def build(name: str, level: str = "optimized"):
    """``(benchmark, module)``: fresh mini-C source -> IR at ``level``."""
    bench = SUITE[name]
    return bench, compile_benchmark(bench, level)


def defined(module) -> List:
    return [f for f in module.functions if not f.is_declaration]


def ir_insts(module) -> int:
    return sum(len(block.instructions)
               for func in defined(module) for block in func.blocks)


def count_calls(fn: Callable[[], object]) -> Tuple[int, object]:
    """Python + C calls made while ``fn`` runs (``sys.setprofile``).
    Deterministic for the compile stages, so it resolves compile-side
    changes that sit under the timing noise floor."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls, result


def probe(names: Iterable[str], make: Callable[[str], Callable[[], object]],
          reps: int = PROBE_REPS) -> float:
    """A per-layer figure from a dedicated probe: for each program,
    ``make(name)`` prepares untimed and returns the region to time;
    the figure is the geometric mean over programs of the median of
    ``reps`` such samples, in reference ms."""
    return geomean(
        median([clock.timed(make(name))[2] * 1e3 for _ in range(reps)])
        for name in names)


def span_ms(layer_ms: Dict[str, Dict[str, List[float]]], name: str) -> float:
    """Geometric mean over programs of the median self time of the spans
    called ``name`` (0 when the traced pass recorded none)."""
    programs = layer_ms.get(name)
    if not programs:
        return 0.0
    return geomean(median(values) for values in programs.values())
