"""Shootout suite tests: checksums, tier agreement, and the central
OSR-transparency property on every benchmark."""

import pytest

from repro.core import HotCounterCondition
from repro.experiments.q1 import instrument_never_firing
from repro.experiments.q2 import _instrument as q2_instrument
from repro.experiments.sites import q1_locations, q2_location
from repro.ir import parse_module, print_module, verify_function
from repro.ir.instructions import AllocaInst
from repro.shootout import (
    SUITE,
    all_benchmarks,
    compile_benchmark,
    run_benchmark,
    verify_benchmark,
    workloads,
)
from repro.transform.mem2reg import is_promotable
from repro.vm import ExecutionEngine

NAMES = [b.name for b in all_benchmarks()]


class TestSuiteDefinition:
    def test_eight_benchmarks(self):
        assert len(all_benchmarks()) == 8
        assert NAMES == ["b-trees", "fannkuch", "fasta", "fasta-redux",
                         "mbrot", "n-body", "rev-comp", "sp-norm"]

    def test_large_variants(self):
        with_large = [b.name for b in all_benchmarks() if b.large_args]
        assert with_large == ["b-trees", "mbrot", "n-body", "sp-norm"]

    def test_recursive_pattern_marked(self):
        assert SUITE["b-trees"].pattern == "recursive"
        assert SUITE["n-body"].pattern == "iterative"

    def test_workloads_iterator(self):
        labels = [label for label, _ in workloads(SUITE["mbrot"])]
        assert labels == ["mbrot", "mbrot-large"]


@pytest.mark.parametrize("name", NAMES)
class TestChecksums:
    def test_unoptimized_jit(self, name):
        verify_benchmark(SUITE[name], level="unoptimized", tier="jit")

    def test_optimized_jit(self, name):
        verify_benchmark(SUITE[name], level="optimized", tier="jit")


@pytest.mark.parametrize("name", NAMES)
class TestIRShape:
    """The front end's output is clang -O0-shaped, so ``unoptimized``
    (mem2reg only) leaves every scalar local in a register."""

    def test_every_alloca_sits_in_the_entry_block(self, name):
        module = compile_benchmark(SUITE[name], "none")
        for func in module.functions:
            for block in func.blocks[1:]:
                assert not [i for i in block if isinstance(i, AllocaInst)], \
                    (func.name, block.name)

    def test_unoptimized_leaves_no_promotable_alloca(self, name):
        module = compile_benchmark(SUITE[name], "unoptimized")
        allocas = [i for func in module.functions
                   for i in func.instructions() if isinstance(i, AllocaInst)]
        assert not [a.name for a in allocas if is_promotable(a)]
        # what is left in memory is arrays only
        assert all(a.allocated_type.is_aggregate for a in allocas)

    @pytest.mark.parametrize("level", ["unoptimized", "optimized"])
    def test_printed_ir_parses_back(self, name, level):
        text = print_module(compile_benchmark(SUITE[name], level))
        assert print_module(parse_module(text)) == text


@pytest.mark.parametrize("name", ["fannkuch", "mbrot", "sp-norm"])
def test_interp_tier_agrees(name):
    """Differential check on a subset (the interpreter is slow)."""
    benchmark = SUITE[name]
    module = compile_benchmark(benchmark, "unoptimized")
    engine = ExecutionEngine(module, tier="interp")
    small_args = tuple(max(a // 4, 3) for a in benchmark.args)
    module2 = compile_benchmark(benchmark, "unoptimized")
    engine2 = ExecutionEngine(module2, tier="jit")
    assert (engine.run(benchmark.entry, *small_args)
            == engine2.run(benchmark.entry, *small_args))


@pytest.mark.parametrize("name", NAMES)
class TestOSRTransparency:
    """Figure 10/11 precondition: a never-firing OSR point must not
    change results; an always-firing one must not either."""

    def test_never_firing_point_preserves_checksum(self, name):
        benchmark = SUITE[name]
        module = compile_benchmark(benchmark, "unoptimized")
        engine = ExecutionEngine(module)
        count = instrument_never_firing(module, benchmark, engine)
        assert count == len(benchmark.q1_functions)
        for func_name in benchmark.q1_functions:
            verify_function(module.get_function(func_name))
        result = engine.run(benchmark.entry, *benchmark.args)
        expected = benchmark.expected[benchmark.args]
        if isinstance(expected, float):
            assert abs(result - expected) < 1e-6 * max(1.0, abs(expected))
        else:
            assert result == expected

    def test_always_firing_resolved_osr_preserves_checksum(self, name):
        benchmark = SUITE[name]
        module = compile_benchmark(benchmark, "unoptimized")
        engine = ExecutionEngine(module)
        q2_instrument(module, benchmark, engine, threshold=1)
        result = engine.run(benchmark.entry, *benchmark.args)
        expected = benchmark.expected[benchmark.args]
        if isinstance(expected, float):
            assert abs(result - expected) < 1e-6 * max(1.0, abs(expected))
        else:
            assert result == expected


class TestSites:
    def test_q1_sites_resolve(self):
        for benchmark in all_benchmarks():
            module = compile_benchmark(benchmark, "unoptimized")
            locations = q1_locations(module, benchmark)
            assert len(locations) == len(benchmark.q1_functions)
            for location in locations:
                assert location.parent is not None

    def test_q2_sites_are_function_entries(self):
        for benchmark in all_benchmarks():
            module = compile_benchmark(benchmark, "unoptimized")
            location = q2_location(module, benchmark)
            func = location.function
            assert func.name == benchmark.q2_function
            assert location.parent is func.entry

    def test_recursive_benchmark_uses_entry(self):
        benchmark = SUITE["b-trees"]
        module = compile_benchmark(benchmark, "unoptimized")
        locations = q1_locations(module, benchmark)
        assert locations[0].parent.parent.name == "check_tree"
        assert locations[0].parent is module.get_function(
            "check_tree").entry
