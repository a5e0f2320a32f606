"""OSR over locals declared *inside* a loop body.

The front end puts every local's alloca in the entry block, so mem2reg
promotes loop-body scalars and the OSR state at the loop header is
registers (plus the pointer of a dynamically indexed array) only.  A
resolved point and an open point at that header, fired mid-loop, must
each equal ``tier="interp"``.
"""

import pytest

from repro.core import (
    HotCounterCondition,
    insert_open_osr_point,
    insert_resolved_osr_point,
)
from repro.experiments.sites import loop_osr_location
from repro.frontend import compile_c
from repro.ir import types as T
from repro.ir.instructions import AllocaInst
from repro.obs.events import OSR_FIRE, OSR_STATE_SIZE
from repro.obs.telemetry import Telemetry
from repro.transform import PassManager
from repro.vm import ExecutionEngine, codegen_function

from ..vm.test_jit_codegen import dispatches
from .test_open_osr import clone_generator

#: ``sq``, ``t`` and ``hist`` are declared inside the loop; ``hist`` is
#: indexed dynamically, so it stays in memory while the scalars must not
SOURCE = """
long churn(long n) {
    long total = 0;
    for (long i = 0; i < n; i++) {
        long sq = i * i;
        long hist[4];
        long t;
        hist[i & 3] = sq + total;
        t = hist[i & 3] - i;
        if (t > sq || i == 7) total += t & 15;
        else total += sq & 7;
    }
    return total;
}
"""
N = 60
THRESHOLD = 25  # fires mid-loop


def _prepared(level="unoptimized"):
    module = compile_c(SOURCE)
    func = module.get_function("churn")
    PassManager.pipeline(level).run(func)
    return module, func


@pytest.fixture(scope="module")
def oracle():
    module, _ = _prepared()
    return ExecutionEngine(module, tier="interp").run("churn", N)


def _alloca_pointers(values):
    return [v for v in values if isinstance(v, AllocaInst)]


def _assert_structured(continuation, engine):
    """A continuation is ordinary IR to the JIT: loops and branches, no
    block dispatch, and nothing left on the tree-walker."""
    artifact = codegen_function(continuation)
    assert "while True:" in artifact.source
    assert not dispatches(artifact.source)
    assert "jit.fallback" not in engine.stats_snapshot()["counters"]


def _assert_register_state(live_values, telemetry=None):
    """The captured state holds the array's pointer and no scalar's."""
    assert [a.allocated_type for a in _alloca_pointers(live_values)] == [
        T.array(4, T.i64)
    ]
    if telemetry is None:
        return
    sizes = [e["args"]["live"] for e in telemetry.events
             if e["name"] == OSR_STATE_SIZE]
    assert sizes == [len(live_values)]


@pytest.mark.parametrize("level", ["unoptimized", "optimized"])
@pytest.mark.parametrize("tier", ["jit", "decoded", "tiered"])
class TestLoopHeaderOSR:
    def test_resolved_point_fires_mid_loop(self, oracle, level, tier):
        module, func = _prepared(level)
        telemetry = Telemetry()
        engine = ExecutionEngine(module, tier=tier, telemetry=telemetry)
        result = insert_resolved_osr_point(
            func, loop_osr_location(func), HotCounterCondition(THRESHOLD),
            engine=engine,
        )
        _assert_register_state(result.live_values, telemetry)
        assert engine.run("churn", N) == oracle
        assert [e["name"] for e in telemetry.events].count(OSR_FIRE) == 1
        _assert_structured(result.continuation, engine)

    def test_open_point_fires_mid_loop(self, oracle, level, tier):
        module, func = _prepared(level)
        telemetry = Telemetry()
        engine = ExecutionEngine(module, tier=tier, telemetry=telemetry)
        generator, calls = clone_generator(module)
        made = []

        def capturing(*args):
            made.append(generator(*args))
            return made[-1]

        env = {"live": None}
        result = insert_open_osr_point(
            func, loop_osr_location(func), HotCounterCondition(THRESHOLD),
            capturing, engine, env=env,
        )
        env["live"] = result.live_values
        _assert_register_state(result.live_values, telemetry)
        assert engine.run("churn", N) == oracle
        assert len(calls) == 1
        _assert_structured(made[0], engine)
