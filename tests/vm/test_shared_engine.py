"""One engine called from several host threads.

The engine is a library its host embeds; a host that runs calls on more
than one thread shares one code cache and one profile per function.
"""

import threading

import pytest

from repro.ir import parse_module
from repro.vm import ExecutionEngine, Trap

SOURCE = """
define i64 @double(i64 %x) {
entry:
  %r = mul i64 %x, 2
  ret i64 %r
}

define i64 @boom(i64 %x) {
entry:
  %p = inttoptr i64 %x to i64*
  %v = load i64, i64* %p
  ret i64 %v
}
"""


def _on_threads(count, target):
    barrier = threading.Barrier(count)
    errors = []

    def run(slot):
        barrier.wait()
        try:
            target(slot)
        except BaseException as exc:  # surfaced on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(slot,))
               for slot in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


@pytest.mark.parametrize("tier", ["tiered", "speculative"])
def test_calls_from_many_threads_resolve_correctly(tier):
    engine = ExecutionEngine(parse_module(SOURCE), tier=tier,
                             call_threshold=5)
    results = {}

    def client(slot):
        results[slot] = [engine.run("double", i) for i in range(20)]

    _on_threads(4, client)
    assert results == {slot: [2 * i for i in range(20)] for slot in range(4)}
    # one promotion for the one shared profile, whichever thread tripped it
    assert engine.tier_promotions == 1
    assert engine.profiler.snapshot()["double"]["promoted"]


def test_promoted_code_is_shared_across_threads():
    engine = ExecutionEngine(parse_module(SOURCE), tier="tiered",
                             call_threshold=3)
    _on_threads(1, lambda _slot: [engine.run("double", 5) for _ in range(4)])
    assert engine.compile_count == 1
    seen = []
    _on_threads(2, lambda _slot: seen.append(engine.run("double", 6)))
    assert seen == [12, 12]
    assert engine.compile_count == 1  # the other threads reuse it
    thunk = engine.get_compiled(engine.module.get_function("double"))
    assert thunk.__code__.co_name == "_jit_double"


def test_a_failed_call_leaves_the_engine_serving():
    engine = ExecutionEngine(parse_module(SOURCE), tier="tiered",
                             call_threshold=2)
    with pytest.raises(Trap):
        engine.run("boom", 12345)  # a dangling object handle
    with pytest.raises(KeyError):
        engine.run("missing")
    assert [engine.run("double", 3) for _ in range(3)] == [6, 6, 6]
    assert engine.tier_promotions == 1
