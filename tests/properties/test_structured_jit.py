"""The structured JIT on random control flow.

Up to eight blocks end in ``br``, ``br i1``, ``switch`` or ``ret`` to
arbitrary blocks, so the CFGs include irreducible cycles, loops with
several branching exits, switches with repeated cases and jumps past
merges.  Every block carries a fuel phi and an accumulator phi, and
divides by the fuel it has left: a run that never returns traps once
the fuel is spent, so every run terminates, and each block stores its
accumulator to ``@last``, so a trapping run still shows its path.
``tier="jit"`` must equal the tree-walker on value or trap and on
``@last``, and a function the JIT hands to the tree-walker must say why
in one of the documented escapes.
"""

from hypothesis import HealthCheck, given, settings

from repro.ir import parse_module
from repro.ir import types as T
from repro.obs import events
from repro.obs.telemetry import Telemetry
from repro.vm import ExecutionEngine, Trap, load_scalar

from .strategies import cfgs, render

#: the reasons ``vm/jit.py`` documents for leaving a function on the
#: tree-walker
ESCAPES = ("jump past a merge", "loops nested too deep",
           "nested deeper than the chain cap")

ARGUMENT_PAIRS = ((3, 5), (-7, 2), (40, -11))


def outcome(engine, args):
    """Value or trap, and the accumulator of the last block that ran
    to its end: a run that traps still shows the path it took."""
    try:
        result = ("ok", engine.run("f", *args))
    except Trap:
        result = ("trap", None)
    last = engine.global_pointer(engine.module.get_global("last"))
    return result + (load_scalar(T.i64, last),)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfgs())
def test_jit_equals_the_tree_walker_on_random_cfgs(cfg):
    text = render(*cfg)
    jit = ExecutionEngine(parse_module(text), tier="jit",
                          telemetry=Telemetry())
    interp = ExecutionEngine(parse_module(text), tier="interp")
    for args in ARGUMENT_PAIRS:
        assert outcome(jit, args) == outcome(interp, args), (args, text)
    for event in jit.telemetry.events:
        if event["name"] == events.JIT_FALLBACK:
            assert event["args"]["reason"].startswith(ESCAPES), text
