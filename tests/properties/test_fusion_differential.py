"""Differential tests: superinstruction fusion must be invisible.

The decoded tier's fused closures are a lowering of the IR's
semantics: they must agree with the tree-walking oracle on results,
traps and memory faults — across the shootout suite and over generated
programs.  Resolved OSR points planted at loop headers must keep firing
when the surrounding compare/branch and operand chains are fused, since
the hot counter is IR and the OSR check block stays a block boundary.
"""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HotCounterCondition, insert_resolved_osr_point
from repro.ir import parse_module, print_module
from repro.ir.function import Module
from repro.obs import events
from repro.shootout import SUITE, compile_benchmark
from repro.vm import ExecutionEngine, Trap

from .strategies import (
    arguments_for,
    build_float_program,
    build_program,
    float_program_specs,
    program_specs,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: workload arguments small enough for the tree-walking oracle
SMALL_ARGS = {
    "b-trees": (6,),
    "fannkuch": (5,),
    "fasta": (120,),
    "fasta-redux": (120,),
    "mbrot": (12,),
    "n-body": (24,),
    "rev-comp": (60,),
    "sp-norm": (12,),
}


def _run(module_factory, entry, args, **engine_kwargs):
    """Outcome-classified run (the tier suite's: the trap's class)."""
    module = module_factory()
    engine = ExecutionEngine(module, **engine_kwargs)
    try:
        return ("ok", engine.run(entry, *args))
    except Trap as trap:
        return ("trap", type(trap))


@pytest.mark.parametrize("name", sorted(SUITE))
@pytest.mark.parametrize("level", ["unoptimized", "optimized"])
def test_shootout_fusion_transparent(name, level):
    bench = SUITE[name]
    args = SMALL_ARGS[name]

    def factory():
        return compile_benchmark(bench, level)

    oracle = _run(factory, bench.entry, args, tier="interp")
    decoded = _run(factory, bench.entry, args, tier="decoded")
    assert decoded == oracle, (name, level)


class TestGeneratedPrograms:
    @SETTINGS
    @given(data=st.data())
    def test_fusion_transparent_on_int_programs(self, data):
        spec = data.draw(program_specs())
        args = data.draw(arguments_for(spec))
        module = Module("prop")
        build_program(spec, module, "prog")
        text = print_module(module)
        oracle = _run(lambda: parse_module(text), "prog", args,
                      tier="interp")
        got = _run(lambda: parse_module(text), "prog", args,
                   tier="decoded")
        assert got == oracle

    @SETTINGS
    @given(data=st.data())
    def test_fusion_transparent_on_float_programs(self, data):
        spec = data.draw(float_program_specs())
        a = data.draw(st.floats(min_value=-1e9, max_value=1e9,
                                allow_nan=False))
        b = data.draw(st.floats(min_value=-1e9, max_value=1e9,
                                allow_nan=False))
        module = Module("prop")
        build_float_program(spec, module, "fprog")
        text = print_module(module)
        oracle = _run(lambda: parse_module(text), "fprog", (a, b),
                      tier="interp")
        got = _run(lambda: parse_module(text), "fprog", (a, b),
                   tier="decoded")
        assert got == oracle


OSR_LOOP = """
define i64 @hot(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %loop ]
  %acc2 = add i64 %acc, %i
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, %n
  br i1 %c, label %loop, label %done
done:
  ret i64 %acc2
}
"""


class TestOSRAtFusedLoopHeaders:
    """An OSR probe at a loop header whose body fuses end-to-end: the
    compare+branch pair and the accumulator chain collapse into
    superinstructions, but the probe must still fire and the transition
    must be value-transparent."""

    def _instrumented_engine(self, threshold):
        module = parse_module(OSR_LOOP)
        engine = ExecutionEngine(module, tier="decoded")
        func = module.get_function("hot")
        loop = func.get_block("loop")
        insert_resolved_osr_point(
            func, loop.instructions[loop.first_non_phi_index],
            HotCounterCondition(threshold), engine=engine,
        )
        return engine

    def test_osr_fires_and_result_is_transparent(self):
        engine = self._instrumented_engine(threshold=50)
        assert engine.run("hot", 500) == sum(range(500))
        assert engine.metrics.counter(events.OSR_FIRE) >= 1

    def test_fused_decode_still_reports_fusion_around_probe(self):
        # the instrumented body must not defeat the peephole entirely:
        # the loop's compare+branch still fuses with the probe in place
        engine = self._instrumented_engine(threshold=50)
        assert engine.run("hot", 500) == sum(range(500))
        fusion = engine.stats_snapshot()["fusion"]
        totals = {key: sum(per_func[key] for per_func in fusion.values())
                  for key in ("cmp_br", "op_chain", "phi_copy")}
        assert totals["cmp_br"] >= 1
        assert totals["phi_copy"] >= 1

    def test_never_firing_probe_is_transparent_under_fusion(self):
        engine = self._instrumented_engine(
            threshold=HotCounterCondition.NEVER)
        assert engine.run("hot", 500) == sum(range(500))
        assert engine.metrics.counter(events.OSR_FIRE) == 0
