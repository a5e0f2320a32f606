"""Speculation transparency: the speculative tier equals the interpreter
over whole call sequences.

A specialization checks its speculated argument once, at entry; a miss
is an ordinary call into the speculation policy.  So what has to stay
observably equivalent is a *sequence* of calls that mixes the speculated
value with others and walks the policy through every move: a miss into
the plain code, a respecialization, a sibling dispatch, and the thrash
limit's pin.  Several benchmarks mutate module globals across calls
(fasta's RNG seed, rev-comp's buffers), so the oracle is the
interpreter's run of the same sequence, not one call.

The same sequences run at the ``scalarized`` pipeline level against the
*same* oracle.  The shootout programs index their arrays dynamically
(SROA bails), so :class:`TestScalarizedScratchSequences` adds
scratch-aggregate programs that scalarization genuinely rewrites.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend import compile_c
from repro.ir.instructions import AllocaInst
from repro.obs import events as EV
from repro.obs.events import validate_events
from repro.obs.telemetry import Telemetry
from repro.shootout import SUITE, all_benchmarks, compile_benchmark
from repro.spec import DEFAULT_THRASH_LIMIT
from repro.transform import PassManager
from repro.vm import ExecutionEngine

NAMES = [b.name for b in all_benchmarks()]

#: per program, the speculated argument first, then four others; small
#: enough that the interpreter oracle stays cheap
ARGS = {
    "b-trees": (2, 3, 1, 4, 0),
    "fannkuch": (3, 4, 2, 1, 5),
    "fasta": (10, 20, 40, 80, 160),
    "fasta-redux": (10, 20, 40, 80, 160),
    "mbrot": (2, 3, 4, 5, 1),
    "n-body": (5, 10, 20, 8, 3),
    "rev-comp": (10, 20, 40, 80, 160),
    "sp-norm": (2, 3, 1, 4, 5),
}


def policy_walk(a, b, c, d, e):
    """Specialize on ``a``; miss with ``b`` (plain code), then again
    (respecialize on ``b``); miss back to ``a`` (sibling dispatch); new
    streaks on ``c`` and ``d`` spend the thrash limit, and ``e``'s
    streak pins the function; a last ``a`` runs the plain code."""
    return (a, a, a, a, b, b, a, c, c, d, d, e, e, a)


assert DEFAULT_THRASH_LIMIT == 3, "policy_walk spends exactly three"


@lru_cache(maxsize=None)
def _oracle(name):
    benchmark = SUITE[name]
    engine = ExecutionEngine(compile_benchmark(benchmark, "unoptimized"),
                             tier="interp")
    return [engine.run(benchmark.entry, arg)
            for arg in policy_walk(*ARGS[name])]


def _run_sequence(module, entry, sequence, oracle):
    """Run ``sequence`` on a speculative engine, call by call against
    ``oracle``; returns the engine and its events."""
    telemetry = Telemetry()
    engine = ExecutionEngine(module, tier="speculative", call_threshold=2,
                             telemetry=telemetry)
    for k, arg in enumerate(sequence):
        assert engine.run(entry, arg) == oracle[k], (entry, k, arg)
    assert validate_events(telemetry.events) == []
    return engine, telemetry.events


def _assert_walked_the_policy(engine, entry, events):
    counters = engine.stats_snapshot()["counters"]
    for name in (EV.SPEC_RESPECIALIZE, EV.SPEC_DISPATCH, EV.SPEC_PINNED):
        assert counters.get(name, 0) >= 1, (entry, name)
    assert engine.spec_manager.state_for(
        engine.module.get_function(entry)).pinned
    fails = [e for e in events if e["name"] == EV.DEOPT_GUARD_FAIL]
    exits = [e for e in events if e["name"] == EV.DEOPT_EXIT]
    assert len(fails) == len(exits) > 0
    assert {e["args"]["mode"] for e in exits} == {"call"}


@pytest.mark.parametrize("level", ["unoptimized", "scalarized"])
@pytest.mark.parametrize("name", NAMES)
def test_policy_walk_equals_the_interpreter(name, level):
    benchmark = SUITE[name]
    engine, events = _run_sequence(
        compile_benchmark(benchmark, level), benchmark.entry,
        policy_walk(*ARGS[name]), _oracle(name))
    _assert_walked_the_policy(engine, benchmark.entry, events)


#: scratch-aggregate programs: the loop-header live set genuinely
#: shrinks under SROA, so the specializations run scalarized bodies
SCRATCH_PROGRAMS = {
    "scratch4": ("spin", (25, 30, 10, 12, 14), """
long spin(long n) {
    long acc[4];
    long total = 0;
    for (long i = 0; i < n; i++) {
        acc[0] = i;
        acc[1] = i * 2;
        acc[2] = acc[0] + acc[1];
        acc[3] = acc[2] - i;
        total = total + acc[3];
    }
    return total;
}
"""),
    "nested2x2": ("det2", (19, 7, 9, 11, 13), """
long det2(long n) {
    long m[4];
    long r[2];
    long total = 0;
    for (long i = 1; i <= n; i++) {
        m[0] = i;
        m[1] = i + 1;
        m[2] = i - 1;
        m[3] = i + 2;
        r[0] = m[0] * m[3];
        r[1] = m[1] * m[2];
        total = total + (r[0] - r[1]);
    }
    return total;
}
"""),
}


@pytest.mark.parametrize("label", sorted(SCRATCH_PROGRAMS))
class TestScalarizedScratchSequences:
    def _modules(self, label):
        entry, args, source = SCRATCH_PROGRAMS[label]
        ref_module = compile_c(source)
        PassManager.pipeline("unoptimized").run(
            ref_module.get_function(entry))
        scal_module = compile_c(source)
        func = scal_module.get_function(entry)
        aggregates = [
            inst for inst in func.instructions()
            if isinstance(inst, AllocaInst)
            and (inst.allocated_type.is_aggregate or inst.count != 1)
        ]
        assert aggregates, f"{label} should carry scalarizable aggregates"
        PassManager.pipeline("scalarized").run(func)
        remaining = [inst for inst in func.instructions()
                     if isinstance(inst, AllocaInst)]
        assert remaining == [], f"{label} did not fully scalarize"
        return entry, args, ref_module, scal_module

    def test_policy_walk_on_scalarized_body(self, label):
        entry, args, ref_module, scal_module = self._modules(label)
        interp = ExecutionEngine(ref_module, tier="interp")
        sequence = policy_walk(*args)
        oracle = [interp.run(entry, arg) for arg in sequence]
        engine, events = _run_sequence(scal_module, entry, sequence, oracle)
        _assert_walked_the_policy(engine, entry, events)

    def test_tiers_agree_on_scalarized_body(self, label):
        entry, args, ref_module, scal_module = self._modules(label)
        oracle = ExecutionEngine(ref_module, tier="interp").run(
            entry, args[0])
        for tier in ("interp", "decoded", "jit", "tiered"):
            module = compile_c(SCRATCH_PROGRAMS[label][2])
            PassManager.pipeline("scalarized").run(
                module.get_function(entry))
            engine = ExecutionEngine(module, tier=tier, call_threshold=2)
            for _ in range(4):
                assert engine.run(entry, args[0]) == oracle, (label, tier)


#: programs whose result depends on the argument only, so one oracle run
#: per argument serves every random sequence
PURE = ["b-trees", "fannkuch", "mbrot", "sp-norm"]


@lru_cache(maxsize=None)
def _pure_oracle(name, arg):
    benchmark = SUITE[name]
    engine = ExecutionEngine(compile_benchmark(benchmark, "unoptimized"),
                             tier="interp")
    return engine.run(benchmark.entry, arg)


class TestRandomCallSequences:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(name=st.sampled_from(PURE),
           picks=st.lists(st.integers(min_value=0, max_value=3),
                          min_size=4, max_size=14))
    def test_equivalent_on_any_mix_of_values(self, name, picks):
        benchmark = SUITE[name]
        sequence = [ARGS[name][pick] for pick in picks]
        oracle = [_pure_oracle(name, arg) for arg in sequence]
        _run_sequence(compile_benchmark(benchmark, "unoptimized"),
                      benchmark.entry, sequence, oracle)
