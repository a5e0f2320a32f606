"""The engine's one continuation store.

``ExecutionEngine.continuation(key, depends, build)`` is where every exit
path (a speculative guard's deopt, a feval site's specialization or
guard failure) finds the code it lands in.  An entry is built once,
served while the compile generation of every function it depends on is
unchanged, and retired by ``invalidate()`` of any of them.
"""

from repro.ir import Module, parse_function
from repro.obs import events as EV
from repro.obs.telemetry import Telemetry
from repro.vm import ExecutionEngine

from ..spec.test_deopt import POLY, _expected

LEAF = """
define i64 @{name}(i64 %x) {{
entry:
  ret i64 %x
}}
"""


def _engine(*names):
    module = Module()
    funcs = [parse_function(LEAF.format(name=name), module)
             for name in names]
    return ExecutionEngine(module, tier="jit"), funcs


class _Builder:
    """A ``build`` callable that counts its calls and returns a fresh
    continuation each time."""

    def __init__(self, result=0):
        self.calls = 0
        self.result = result

    def __call__(self):
        self.calls += 1
        result = self.result
        return lambda *args: result


def test_miss_builds_once_then_hits():
    engine, (f,) = _engine("f")
    build = _Builder(7)
    first = engine.continuation("k", (f,), build)
    second = engine.continuation("k", (f,), build)
    assert first is second
    assert first() == 7
    assert build.calls == 1
    assert engine.continuations() == {"k": first}
    # another key is another entry
    other = engine.continuation("k2", (f,), build)
    assert other is not first
    assert build.calls == 2


def test_invalidate_drops_only_dependent_entries():
    engine, (f, g, h) = _engine("f", "g", "h")
    on_f = engine.continuation("f", (f,), _Builder())
    engine.continuation("fg", (f, g), _Builder())
    engine.continuation("gf", (g, f), _Builder())
    on_g = engine.continuation("g", (g,), _Builder())
    on_h = engine.continuation("h", (h,), _Builder())
    engine.invalidate(f)
    assert engine.continuations() == {"g": on_g, "h": on_h}
    assert not [key for key in engine._continuations if "f" in key]
    # a dropped entry is rebuilt on its next lookup
    build = _Builder()
    assert engine.continuation("f", (f,), build) is not on_f
    assert build.calls == 1


def test_drop_continuations_retires_without_invalidating():
    engine, (f, g) = _engine("f", "g")
    compiled = engine.get_compiled(f)
    engine.continuation("f", (f,), _Builder())
    on_g = engine.continuation("g", (g,), _Builder())
    engine.drop_continuations(f)
    assert engine.continuations() == {"g": on_g}
    assert engine.get_compiled(f) is compiled


def test_build_racing_invalidate_returns_but_installs_nothing():
    engine, (f, g) = _engine("f", "g")

    def build():
        # the code the continuation was cut from changes mid-build
        engine.invalidate(g)
        return lambda: "stale"

    code = engine.continuation("k", (f, g), build)
    assert code() == "stale"
    assert engine.continuations() == {}
    fresh = _Builder("fresh")
    assert engine.continuation("k", (f, g), fresh)() == "fresh"
    assert fresh.calls == 1
    assert list(engine.continuations()) == ["k"]


def test_dispatch_continuation_is_reused_across_two_exits():
    tel = Telemetry()
    module = Module()
    func = parse_function(POLY, module)
    engine = ExecutionEngine(module, tier="speculative", call_threshold=3,
                             telemetry=tel)
    for mode, n, calls in ((1, 40, 10), (7, 20, 8)):
        for _ in range(calls):
            assert engine.run("poly", mode, n) == _expected(mode, n)
    state = engine.spec_manager.state_for(func)
    sibling = state.versions[(0, 1)]
    assert state.active_version.value == 7
    counters = engine.stats_snapshot()["counters"]
    built = counters[EV.DEOPT_CONTINUATION]
    exits = len(tel.events)
    # the first mode-1 call dispatches 7 -> 1; the second one, whose
    # streak also re-points the call boundary, dispatches again
    for _ in range(2):
        assert engine.run("poly", 1, 40) == _expected(1, 40)
    dispatched = [event for event in tel.events[exits:]
                  if event["name"] == EV.DEOPT_EXIT
                  and event["args"]["mode"] == "dispatch"]
    assert len(dispatched) == 2
    assert {e["args"]["target"] for e in dispatched} == {
        sibling.function.name}
    counters = engine.stats_snapshot()["counters"]
    assert counters[EV.DEOPT_CONTINUATION] == built + 1
    assert state.active_version is sibling
