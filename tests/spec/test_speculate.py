"""The speculation pass: clones specialized on an argument value behind
one entry check."""

import math

import pytest

from repro.analysis import AnalysisManager
from repro.ir import Module, parse_function, verify_function
from repro.ir.instructions import (CallInst, CondBranchInst, FCmpInst,
                                   ICmpInst, RetInst)
from repro.shootout import SUITE, compile_benchmark
from repro.spec import SpeculationError, specialize_function
from repro.vm import ExecutionEngine
from repro.vm.profile import MAX_DISTINCT_VALUES, ValueFeedback

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
"""


def _poly(module=None):
    module = module if module is not None else Module()
    return parse_function(POLY, module), module


class TestSpecializationPass:
    def test_one_check_at_entry_and_none_in_the_body(self):
        f, m = _poly()
        version = specialize_function(f, 0, 1)
        clone = version.function
        verify_function(clone)
        check = clone.entry.terminator
        assert isinstance(check, CondBranchInst)
        assert check.condition.get_operand(0) is clone.args[0]
        # the check compares the only remaining use of the argument
        # besides the miss call
        users = {type(use.user) for use in clone.args[0].uses}
        assert users == {ICmpInst, CallInst}
        loops = AnalysisManager().loop_info(clone).loops
        assert [loop.header.name for loop in loops] == ["loop"]

    def test_the_miss_edge_returns_a_call_of_the_miss_declaration(self):
        f, m = _poly()
        version = specialize_function(f, 0, 1)
        missed = version.function.entry.terminator.false_target
        call, ret = missed.instructions
        assert isinstance(call, CallInst) and call.callee is version.miss
        assert call.args == version.function.args
        assert isinstance(ret, RetInst) and ret.value is call
        assert version.miss.is_declaration
        assert m.get_function(version.miss.name) is version.miss

    def test_speculated_branch_folds_away(self):
        f, m = _poly()
        version = specialize_function(f, 0, 1)
        blocks = {b.name for b in version.function.blocks}
        # the %slow path is unreachable under mode==1 and must be gone
        assert not any(name.startswith("slow") for name in blocks)

    def test_specialized_semantics_match_on_speculated_value(self):
        f, m = _poly()
        version = specialize_function(f, 0, 1)
        engine = ExecutionEngine(m, tier="jit")
        assert engine.call(version.function, [1, 50]) == sum(range(50))

    def test_a_miss_calls_whatever_the_declaration_is_bound_to(self):
        f, m = _poly()
        version = specialize_function(f, 0, 1)
        engine = ExecutionEngine(m, tier="jit")
        engine.add_native(version.miss.name, lambda mode, n: -mode * n)
        assert engine.call(version.function, [4, 50]) == -200

    def test_void_function(self):
        m = Module()
        f = parse_function("""
define void @v(i64 %k) {
entry:
  ret void
}
""", m)
        version = specialize_function(f, 0, 3)
        verify_function(version.function)
        engine = ExecutionEngine(m, tier="jit")
        seen = []
        engine.add_native(version.miss.name, seen.append)
        assert engine.call(version.function, [3]) is None
        assert engine.call(version.function, [5]) is None
        assert seen == [5]

    def test_baseline_left_untouched(self):
        f, m = _poly()
        before = sum(len(b.instructions) for b in f.blocks)
        specialize_function(f, 0, 1)
        assert sum(len(b.instructions) for b in f.blocks) == before
        verify_function(f)

    def test_attributes_record_provenance(self):
        f, m = _poly()
        version = specialize_function(f, 0, 1)
        assert version.function.attributes["spec.of"] == "poly"
        assert version.function.attributes["spec.arg"] == "0"


class TestSpeculationErrors:
    def test_bad_arg_index(self):
        f, m = _poly()
        with pytest.raises(SpeculationError):
            specialize_function(f, 5, 1)

    def test_value_type_mismatch(self):
        f, m = _poly()
        with pytest.raises(SpeculationError):
            specialize_function(f, 0, 1.5)

    def test_declaration_rejected(self):
        from repro.ir import parse_module

        m = parse_module("declare i64 @ext(i64)")
        with pytest.raises(SpeculationError):
            specialize_function(m.get_function("ext"), 0, 1)


class TestFloatSpeculation:
    SRC = """
define double @fs(double %k, double %x) {
entry:
  %r = fmul double %k, %x
  ret double %r
}
"""

    def test_float_check_uses_fcmp(self):
        m = Module()
        f = parse_function(self.SRC, m)
        version = specialize_function(f, 0, 2.0)
        check = version.function.entry.terminator.condition
        assert isinstance(check, FCmpInst) and check.predicate == "oeq"
        engine = ExecutionEngine(m, tier="jit")
        assert engine.call(version.function, [2.0, 21.0]) == 42.0

    @pytest.mark.parametrize("value", [float("nan"), 0.0, -0.0])
    def test_values_the_check_cannot_tell_apart_are_not_speculated(
            self, value):
        m = Module()
        f = parse_function(self.SRC, m)
        with pytest.raises(SpeculationError):
            specialize_function(f, 0, value)

    def test_negative_zero_after_zero_keeps_its_sign(self):
        m = Module()
        parse_function("""
define double @twice(double %x) {
entry:
  %r = fmul double %x, 2.0
  ret double %r
}
""", m)
        engine = ExecutionEngine(m, tier="speculative", call_threshold=2)
        for _ in range(6):
            assert math.copysign(1.0, engine.run("twice", 0.0)) == 1.0
        assert math.copysign(1.0, engine.run("twice", -0.0)) == -1.0


class TestBoundedFeedback:
    """Argument feedback costs O(1) per call and stays bounded: a slot
    tells at most ``MAX_DISTINCT_VALUES`` values apart, then goes
    megamorphic and records nothing."""

    def test_dominant_is_kept_current(self):
        slot = ValueFeedback()
        for value in (3, 5, 5, 3.5, 5, "ptr"):
            slot.record(value)
        assert slot.dominant() == (5, 3)
        assert slot.total == 6

    def test_one_value_past_the_cap_is_megamorphic(self):
        slot = ValueFeedback()
        for value in range(MAX_DISTINCT_VALUES):
            slot.record(value)
            slot.record(0)
        assert slot.dominant() == (0, MAX_DISTINCT_VALUES + 1)
        slot.record(MAX_DISTINCT_VALUES)
        assert slot.counts is None and slot.dominant() is None
        total = slot.total
        slot.record(0)
        assert slot.total == total

    def test_fasta_runs_leave_every_slot_within_the_cap(self):
        bench = SUITE["fasta"]
        engine = ExecutionEngine(compile_benchmark(bench), tier="speculative")
        # the generator's seed is a global: each run continues the last
        oracle = ExecutionEngine(compile_benchmark(bench), tier="interp")
        for _ in range(5):
            assert (engine.run(bench.entry, 300)
                    == oracle.run(bench.entry, 300))
        slots = {(name, index): slot
                 for name, profile in engine.profiler._profiles.items()
                 for index, slot in enumerate(profile.feedback)}
        # fasta_pick's third argument is a fresh random number per call;
        # its feedback stops at the promoted call that decides
        profile = engine.profiler._profiles["fasta_pick"]
        assert profile.samples <= engine.profiler.call_threshold
        assert engine.spec_manager.state_for(
            engine.module.get_function("fasta_pick")).active_version is None
        for key, slot in slots.items():
            assert (slot.counts is None
                    or len(slot.counts) <= MAX_DISTINCT_VALUES), key
