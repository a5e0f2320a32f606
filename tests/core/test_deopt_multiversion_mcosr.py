"""Deoptimization (guard-based resolved OSR) and the McOSR-style
ablation baseline."""

import pytest

from repro.core import (
    AlwaysCondition,
    GuardCondition,
    HotCounterCondition,
    OSRError,
    insert_mcosr_point,
    insert_resolved_osr_point,
    required_landing_state,
)
from repro.ir import parse_module, verify_function
from repro.ir import types as T
from repro.vm import ExecutionEngine

from ..conftest import build_sum_loop


class TestDeoptimization:
    """The deoptimization scenario of Section 2: a speculatively
    optimized function falls back to the safe base version when its
    guard fails."""

    SRC = """
define i64 @safe_div(i64 %a, i64 %b) {
entry:
  br label %check
check:
  %z = icmp eq i64 %b, 0
  br i1 %z, label %zero, label %div
zero:
  ret i64 0
div:
  %q = sdiv i64 %a, %b
  ret i64 %q
}

define i64 @spec_div(i64 %a, i64 %b) {
entry:
  br label %fast
fast:
  %q = sdiv i64 %a, %b
  ret i64 %q
}
"""

    def test_guard_fires_deopt_to_safe_version(self):
        module = parse_module(self.SRC)
        engine = ExecutionEngine(module)
        spec = module.get_function("spec_div")
        safe = module.get_function("safe_div")

        # guard: b == 0 means the speculative fast path is unsafe
        def emit_guard(func, builder):
            return builder.icmp("eq", func.args[1],
                                builder.const_i64(0), "guard")

        landing = safe.get_block("check")
        by_index = {"a": 0, "b": 1}
        mapping = {v: by_index[v.name]
                   for v in required_landing_state(safe, landing)}

        fast = spec.get_block("fast")
        location = fast.instructions[0]
        insert_resolved_osr_point(
            spec, location, GuardCondition(emit_guard),
            variant=safe, landing=landing, mapping=mapping,
            engine=engine,
        )
        verify_function(spec)
        assert engine.run("spec_div", 10, 2) == 5     # fast path
        assert engine.run("spec_div", 10, 0) == 0     # deopt, no trap

    def test_guard_must_be_i1(self):
        module = parse_module(self.SRC)
        spec = module.get_function("spec_div")
        safe = module.get_function("safe_div")
        bad = GuardCondition(lambda func, b: b.const_i64(1))
        location = spec.get_block("fast").instructions[0]
        landing = safe.get_block("check")
        by_index = {"a": 0, "b": 1}
        mapping = {v: by_index[v.name]
                   for v in required_landing_state(safe, landing)}
        with pytest.raises(TypeError):
            insert_resolved_osr_point(
                spec, location, bad,
                variant=safe, landing=landing, mapping=mapping,
            )


class TestMcOSRBaseline:
    def loop_location(self, func):
        loop = func.get_block("loop")
        return loop.instructions[loop.first_non_phi_index]

    def test_instrumentation_shape(self, module):
        func = build_sum_loop(module)
        point = insert_mcosr_point(
            func, self.loop_location(func), HotCounterCondition(10)
        )
        verify_function(func)
        # new entrypoint with flag dispatch
        assert func.entry.name == "osr.dispatch"
        assert module.has_global(point.flag.name)
        assert len(point.pool) == 3  # n, i, acc

    def test_transparency(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        insert_mcosr_point(
            func, self.loop_location(func), HotCounterCondition(10),
            engine=engine,
        )
        assert engine.run("sum", 100) == sum(range(100))
        assert engine.run("sum", 5) == sum(range(5))

    def test_always_firing(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        insert_mcosr_point(
            func, self.loop_location(func), AlwaysCondition(),
            engine=engine,
        )
        assert engine.run("sum", 50) == sum(range(50))

    def test_loop_header_restriction(self, module):
        func = build_sum_loop(module)
        # 'done' has two predecessors, so it IS eligible; 'entry' has none
        entry_loc = func.entry.instructions[0]
        with pytest.raises(OSRError, match="two predecessors"):
            insert_mcosr_point(func, entry_loc, AlwaysCondition())

    def test_extra_entrypoint_remains(self, module):
        """The McOSR drawback the paper calls out: the flag-check
        entrypoint stays in the function on every future invocation."""
        func = build_sum_loop(module)
        insert_mcosr_point(
            func, self.loop_location(func), HotCounterCondition(10)
        )
        entry = func.entry
        from repro.ir.instructions import LoadInst

        assert any(isinstance(i, LoadInst) for i in entry.instructions)
