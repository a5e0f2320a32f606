"""The speculation pass: guarded clones specialized on argument values."""

import pytest

from repro.ir import GuardInst, Module, parse_function, verify_function
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


def _guard_insts(func):
    return [inst for block in func.blocks for inst in block.instructions
            if isinstance(inst, GuardInst)]


class TestSpecializationPass:
    def test_guards_at_entry_and_loop_header(self):
        f, m = _poly()
        version = specialize_function(f, 0, 1)
        landings = {fs.landing.name for fs in version.guards.values()}
        assert landings == {"entry", "loop"}
        verify_function(version.function)

    def test_speculated_branch_folds_away(self):
        f, m = _poly()
        version = specialize_function(f, 0, 1)
        blocks = {b.name for b in version.function.blocks}
        # the %slow path is unreachable under mode==1 and must be gone
        assert not any(name.startswith("slow") for name in blocks)
        # ... but the guards still compare the *runtime* argument
        for guard in _guard_insts(version.function):
            assert guard.condition.get_operand(0) in version.function.args

    def test_speculated_arg_captured_last(self):
        f, m = _poly()
        version = specialize_function(f, 0, 1)
        spec_arg = version.function.args[0]
        for guard in _guard_insts(version.function):
            assert guard.live_values[-1] is spec_arg
        for fs in version.guards.values():
            assert fs.live_values[-1] is f.args[0]

    def test_framestate_lists_baseline_values(self):
        f, m = _poly()
        version = specialize_function(f, 0, 1)
        for fs in version.guards.values():
            for value in fs.live_values:
                owner = getattr(value, "parent", None)
                block_owner = getattr(owner, "parent", None)
                assert value in f.args or block_owner is f

    def test_specialized_semantics_match_on_speculated_value(self):
        f, m = _poly()
        version = specialize_function(f, 0, 1)
        engine = ExecutionEngine(m, tier="jit")
        assert engine.call(version.function, [1, 50]) == sum(range(50))

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

    def test_float_guard_uses_fcmp(self):
        m = Module()
        f = parse_function(self.SRC, m)
        version = specialize_function(f, 0, 2.0)
        engine = ExecutionEngine(m, tier="jit")
        assert engine.call(version.function, [2.0, 21.0]) == 42.0


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
        # fasta_pick's third argument is a fresh random number per call
        assert slots[("fasta_pick", 2)].counts is None
        for key, slot in slots.items():
            assert (slot.counts is None
                    or len(slot.counts) <= MAX_DISTINCT_VALUES), key
