"""Publication routes calls.

Once a function's code is published, JIT'd callers (through their
``_f_<callee>`` slots), ``engine.run`` and function pointers
(:class:`FunctionHandle`) call it directly, with no dispatcher frame in
between; a republish re-points them all, and ``invalidate()`` turns the
slots back into lazy trampolines.  Every result is checked against the
``jit`` engine's.
"""

import pytest

from repro.core import HotCounterCondition, insert_resolved_osr_point
from repro.ir import parse_module, types as T
from repro.ir.values import ConstantInt
from repro.obs import Telemetry, events
from repro.vm import POLICIES, ExecutionEngine

CALLS = """
define i64 @leaf(i64 %x) {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}

define i64 @top(i64 %x) {
entry:
  %r = call i64 @leaf(i64 %x)
  %r2 = add i64 %r, 1
  ret i64 %r2
}
"""

POLY = """
define i64 @poly(i64 %mode, i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %latch ]
  %is_mode1 = icmp eq i64 %mode, 1
  br i1 %is_mode1, label %fast, label %slow
fast:
  %f = add i64 %acc, %i
  br label %latch
slow:
  %t = mul i64 %i, %mode
  %s = add i64 %acc, %t
  br label %latch
latch:
  %acc.next = phi i64 [ %f, %fast ], [ %s, %slow ]
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}

define i64 @drive(i64 %mode, i64 %n) {
entry:
  %r = call i64 @poly(i64 %mode, i64 %n)
  ret i64 %r
}
"""

LOOP = """
define i64 @sumto(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc1, %loop ]
  %acc1 = add i64 %acc, %i
  %i1 = add i64 %i, 1
  %c = icmp sle i64 %i1, %n
  br i1 %c, label %loop, label %out
out:
  ret i64 %acc1
}
"""


def _engine(src, tier, jit_callers=(), **kwargs):
    """An engine over a fresh parse of ``src``, with ``jit_callers``
    pinned to the ``jit`` tier: their call slots are patched by the
    first call, before any callee is promoted."""
    module = parse_module(src)
    engine = ExecutionEngine(module, tier=tier, **kwargs)
    for name in jit_callers:
        engine.set_tier(module.get_function(name), "jit")
    return engine, module


def _slot(engine, caller, callee):
    """What ``caller``'s JIT'd code calls ``callee`` through."""
    return engine._compiled[caller].__globals__[f"_f_{callee}"]


def _bump_leaf(module):
    """Rewrite ``leaf`` to add 100 instead of 1."""
    add = module.get_function("leaf").entry.instructions[0]
    add.set_operand(1, ConstantInt(T.i64, 100))


@pytest.mark.parametrize("tier", ["tiered", "speculative"])
def test_promotion_rewrites_the_callers_slot(tier):
    oracle, _ = _engine(CALLS, "jit")
    engine, module = _engine(CALLS, tier, jit_callers=["top"],
                             call_threshold=2)
    leaf = module.get_function("leaf")
    results = [engine.run("top", 10) for _ in range(6)]
    results.append(engine.run("leaf", 10))
    assert results == [oracle.run("top", 10)] * 6 + [oracle.run("leaf", 10)]
    published = engine._boxes["leaf"].value
    # under ``speculative`` the feedback stage has republished leaf's
    # specialization for its one argument value over the plain code
    assert published.__code__.co_name == (
        "_jit_leaf_spec" if POLICIES[tier].speculate else "_jit_leaf")
    # the slot the first call patched to the dispatcher now holds the
    # published code, and so does what engine.run calls
    assert _slot(engine, "top", "leaf") is published
    assert engine.get_compiled(leaf) is published
    assert engine.tier_promotions == 1


def test_specialization_and_pin_reach_slot_and_function_pointer():
    oracle, _ = _engine(POLY, "jit")
    engine, module = _engine(POLY, "speculative", jit_callers=["drive"],
                             call_threshold=3)
    poly = module.get_function("poly")
    handle = engine.handle_for(poly)

    def call(mode, n):
        expected = oracle.run("poly", mode, n)
        assert engine.run("drive", mode, n) == expected
        assert handle(mode, n) == expected

    def assert_routed_to(stage):
        assert engine._boxes["poly"].value is stage
        assert _slot(engine, "drive", "poly") is stage
        assert engine.get_compiled(poly) is stage
        call(1, 5)  # the handle re-resolves on its next call
        assert handle._compiled is stage

    for _ in range(10):
        call(1, 40)
    state = engine.spec_manager.state_for(poly)
    version = state.active_version
    assert version is not None and version.value == 1
    specialized = engine._boxes["poly"].value
    assert specialized.__ir_artifact__ is version.function._cached_code
    assert_routed_to(specialized)

    for mode in (11, 13, 17, 19, 23, 29):
        for _ in range(6):
            call(mode, 10)
        if state.pinned:
            break
    assert state.pinned and state.active_version is None
    plain = engine._boxes["poly"].value
    assert plain.__ir_artifact__ is poly._cached_code
    assert_routed_to(plain)
    call(999, 10)


def test_invalidate_turns_slots_back_into_trampolines():
    oracle, oracle_module = _engine(CALLS, "jit")
    engine, module = _engine(CALLS, "tiered", jit_callers=["top"],
                             call_threshold=2)
    leaf = module.get_function("leaf")
    for _ in range(4):
        assert engine.run("top", 10) == oracle.run("top", 10)
    assert _slot(engine, "top", "leaf") is engine._boxes["leaf"].value

    _bump_leaf(module)
    engine.invalidate(leaf)
    _bump_leaf(oracle_module)
    oracle.invalidate(oracle_module.get_function("leaf"))
    assert _slot(engine, "top", "leaf").__name__ == "trampoline_leaf"
    expected = oracle.run("top", 10)
    assert expected == 111
    # the rewritten body starts over behind its dispatcher ...
    assert engine.run("top", 10) == expected
    assert _slot(engine, "top", "leaf").__name__ == "tiered_leaf"
    # ... and re-earns its promotion, which routes the slot again
    for _ in range(3):
        assert engine.run("top", 10) == expected
    assert engine.tier_promotions == 2
    assert _slot(engine, "top", "leaf") is engine._boxes["leaf"].value
    assert engine._boxes["leaf"].value.__code__.co_name == "_jit_leaf"


def test_resolved_continuation_fires_after_its_own_promotion():
    def insert(engine, module):
        func = module.get_function("sumto")
        loop = func.get_block("loop")
        return insert_resolved_osr_point(
            func, loop.instructions[loop.first_non_phi_index],
            HotCounterCondition(3), engine=engine)

    oracle, oracle_module = _engine(LOOP, "jit")
    insert(oracle, oracle_module)
    tel = Telemetry()
    engine, module = _engine(LOOP, "tiered", call_threshold=2,
                             telemetry=tel)
    cont = insert(engine, module).continuation
    runs = 6
    for _ in range(runs):
        assert engine.run("sumto", 50) == oracle.run("sumto", 50)
    names = [(e["name"], e["args"].get("function")) for e in tel.events]
    promoted = names.index((events.TIER_PROMOTE, cont.name))
    fires = [i for i, (name, _) in enumerate(names)
             if name == events.OSR_FIRE]
    assert len(fires) == runs
    assert any(i > promoted for i in fires)
    # what callers reach is the published code behind the fire probe
    routed = engine._compiled[cont.name]
    assert routed.__name__ == f"osrfire_{cont.name}"
    assert routed.__wrapped__ is engine._boxes[cont.name].value


def test_invalidated_callers_drop_their_slot_records():
    engine, module = _engine(CALLS, "jit")
    top = module.get_function("top")
    for _ in range(50):
        assert engine.run("top", 10) == 12
        engine.invalidate(top)
    assert engine.run("top", 10) == 12
    assert len(engine._patched["leaf"]) <= 1
