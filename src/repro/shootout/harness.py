"""Harness for compiling and running shootout benchmarks.

Centralizes the compile-and-run flow the experiments share: compile a
benchmark's mini-C source, apply one of the paper's two pipeline tiers
(*unoptimized* = mem2reg only, *optimized* = -O1-like), build an engine
and execute the workload.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from ..frontend import compile_c
from ..ir.function import Function, Module
from ..transform import PassManager
from ..vm import ExecutionEngine
from .programs import SUITE, Benchmark


def compile_benchmark(benchmark: Benchmark, level: str = "unoptimized"
                      ) -> Module:
    """Compile a benchmark to a fresh module at the given pipeline tier.

    ``level`` is ``"unoptimized"`` (mem2reg only — the paper's baseline
    configuration), ``"optimized"`` (-O1-like), or ``"none"`` (raw -O0
    alloca code, useful for inspecting frontend output).
    """
    module = compile_c(benchmark.source, module_name=benchmark.name)
    if level != "none":
        PassManager.pipeline(level).run_module(module)
    return module


def run_benchmark(
    benchmark: Benchmark,
    level: str = "unoptimized",
    tier: str = "jit",
    module: Optional[Module] = None,
) -> Tuple[object, float]:
    """Compile (unless ``module`` is supplied) and run one benchmark on
    its standard workload.

    Returns ``(checksum, seconds)``.
    """
    if module is None:
        module = compile_benchmark(benchmark, level)
    engine = ExecutionEngine(module, tier=tier)
    # warm-up: force compilation outside the timed region (the paper times
    # steady-state CPU time after a warm-up iteration)
    engine.get_compiled(module.get_function(benchmark.entry))
    start = time.perf_counter()
    result = engine.run(benchmark.entry, *benchmark.args)
    elapsed = time.perf_counter() - start
    return result, elapsed


def workloads(benchmark: Benchmark):
    """Yield ``(label, args)`` for the benchmark's configured workloads."""
    yield benchmark.name, benchmark.args
    if benchmark.large_args is not None:
        yield f"{benchmark.name}-large", benchmark.large_args


def verify_benchmark(benchmark: Benchmark, level: str = "unoptimized",
                     tier: str = "jit") -> None:
    """Assert the benchmark reproduces its recorded checksums."""
    module = compile_benchmark(benchmark, level)
    engine = ExecutionEngine(module, tier=tier)
    for args, expected in benchmark.expected.items():
        result = engine.run(benchmark.entry, *args)
        if isinstance(expected, float):
            if abs(result - expected) > 1e-6 * max(1.0, abs(expected)):
                raise AssertionError(
                    f"{benchmark.name}{args}: got {result}, "
                    f"expected {expected}"
                )
        elif result != expected:
            raise AssertionError(
                f"{benchmark.name}{args}: got {result}, expected {expected}"
            )


def all_benchmarks():
    """The suite in Table 1 order."""
    return [SUITE[name] for name in (
        "b-trees", "fannkuch", "fasta", "fasta-redux",
        "mbrot", "n-body", "rev-comp", "sp-norm",
    )]
