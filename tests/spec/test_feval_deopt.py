"""McVM feval guard_fail as an OSR exit.

When the feval OSR fires with a non-handle value, the optimizer used to
raise and unwind the whole execution.  It now OSR-exits into a
continuation of the *unspecialized* version, kept in the engine's
continuation store, so the loop keeps its progress and feval goes
through the generic boxed dispatcher from that point on.  The exit needs
no speculation machinery: it emits the ``deopt.*`` events itself.
"""

import pytest

from repro.mcvm.mctypes import DOUBLE, HANDLE
from repro.mcvm.runtime import McBox, unbox_to_float
from repro.mcvm.vm import McVM
from repro.obs import events as EV
from repro.obs.events import validate_events
from repro.obs.telemetry import Telemetry

SRC = """
function r = maybe(p, n)
  acc = 0;
  i = 1;
  while i <= n
    if i > 1000
      acc = acc + feval(p, i);
    end
    acc = acc + i;
    i = i + 1;
  end
  r = acc;
end

function y = rhs(x)
  y = x * 2;
end
"""


def _vm(telemetry=None):
    vm = McVM(SRC, enable_osr=True, osr_threshold=2, telemetry=telemetry)
    version = vm.compile_version("maybe", (HANDLE, DOUBLE))
    return vm, version


def _call(vm, version, p, n):
    result = vm.engine.call(version.ir_function, [p, float(n)])
    return result if isinstance(result, float) else unbox_to_float(result)


class TestFevalGuardFailDeopt:
    def test_non_handle_val_resumes_via_deopt(self):
        vm, version = _vm()
        # a boxed double where the handle was speculated: the OSR fires
        # at the hot loop header, the guard fails, and execution must
        # resume mid-loop instead of unwinding
        got = _call(vm, version, McBox(0.0), 20)
        assert got == float(sum(range(1, 21)))
        assert vm.stats["feval_deopts"] == 1
        assert vm.engine.stats_snapshot()["counters"][EV.DEOPT_EXIT] == 1
        # no speculation or deopt managers were created to take the exit
        assert vm.engine.spec_manager is None
        assert not hasattr(vm.engine, "deopt_manager")

    def test_continuation_is_cached_across_failures(self):
        vm, version = _vm()
        versions_before = None
        for k in range(3):
            assert _call(vm, version, McBox(0.0), 20) == 210.0
            if versions_before is None:
                versions_before = vm.stats["versions_compiled"]
        # one deopt variant compiled, then reused
        assert vm.stats["versions_compiled"] == versions_before
        assert vm.stats["feval_deopts"] == 3
        assert vm.engine.stats_snapshot()["counters"][EV.DEOPT_EXIT] == 3
        assert len(vm.engine.continuations()) == 1

    def test_deopt_events_emitted_and_valid(self):
        tel = Telemetry()
        vm, version = _vm(telemetry=tel)
        _call(vm, version, McBox(0.0), 20)
        events = tel.events
        assert validate_events(events) == []
        names = [e["name"] for e in events]
        assert EV.FEVAL_GUARD_FAIL in names
        assert EV.DEOPT_GUARD_FAIL in names
        assert EV.DEOPT_EXIT in names
        exit_event = [e for e in events if e["name"] == EV.DEOPT_EXIT][0]
        assert exit_event["args"]["mode"] == "external"

    def test_handle_path_still_specializes(self):
        vm = McVM("""
function y = sq(x)
  y = x * x;
end

function w = accumulate(g, n)
  w = 0.0;
  i = 0.0;
  while i < n
    w = w + feval(g, i);
    i = i + 1.0;
  end
end
""", enable_osr=True, osr_threshold=2)
        # ordinary handle argument: the classic feval optimization path
        out = vm.run("accumulate", "@sq", 50.0)
        assert out == float(sum(i * i for i in range(50)))
        assert vm.stats["feval_optimizations"] == 1
        assert vm.stats["feval_deopts"] == 0
