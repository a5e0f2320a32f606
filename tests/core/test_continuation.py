"""Continuation-generation and state-mapping tests (Figure 7 semantics)."""

import pytest

from repro.core import (
    OSRError,
    generate_continuation,
    required_landing_state,
)
from repro.ir import (parse_module, print_function, verify_function,
                      verify_module)
from repro.ir import types as T
from repro.ir.instructions import PhiInst
from repro.ir.values import ConstantInt
from repro.transform.clone import clone_function
from repro.vm import ExecutionEngine

from ..conftest import build_sum_loop


def identity_mapping(variant, landing, live):
    by_name = {v.name: i for i, v in enumerate(live)}
    return {v: by_name[v.name]
            for v in required_landing_state(variant, landing)}


class TestRequiredState:
    def test_loop_landing_state(self, module):
        func = build_sum_loop(module)
        landing = func.get_block("loop")
        names = [v.name for v in required_landing_state(func, landing)]
        assert names == ["n", "i", "acc"]

    def test_exit_landing_state(self, module):
        func = build_sum_loop(module)
        landing = func.get_block("done")
        names = [v.name for v in required_landing_state(func, landing)]
        assert names == ["res"]


class TestGeneration:
    def test_dead_entry_removed(self, module):
        func = build_sum_loop(module)
        live = required_landing_state(func, func.get_block("loop"))
        cont = generate_continuation(
            func, func.get_block("loop"), live,
            identity_mapping(func, func.get_block("loop"), live),
            module=module,
        )
        verify_function(cont)
        # the original entry block's region is unreachable and elided
        assert "entry" not in [b.name for b in cont.blocks]
        assert cont.entry.name == "osr.entry"

    def test_execution_resumes_mid_loop(self, module):
        func = build_sum_loop(module)
        live = required_landing_state(func, func.get_block("loop"))
        cont = generate_continuation(
            func, func.get_block("loop"), live,
            identity_mapping(func, func.get_block("loop"), live),
            module=module,
        )
        engine = ExecutionEngine(module)
        # resume "as if" i=10, acc=45 (the state after 10 iterations)
        assert engine.run(cont.name, 100, 10, 45) == sum(range(100))

    def test_landing_phis_get_osr_incoming(self, module):
        func = build_sum_loop(module)
        landing = func.get_block("loop")
        live = required_landing_state(func, landing)
        cont = generate_continuation(
            func, landing, live, identity_mapping(func, landing, live),
            module=module,
        )
        landing_clone = cont.entry.successors()[0]
        for phi in landing_clone.phis:
            assert phi.has_incoming_for(cont.entry)

    def test_constant_entry(self, module):
        func = build_sum_loop(module)
        landing = func.get_block("loop")
        live = required_landing_state(func, landing)
        mapping = identity_mapping(func, landing, live)
        # pin acc to 1000 regardless of the transferred value
        acc_phi = landing.phis[1]
        assert acc_phi.name == "acc"
        mapping[acc_phi] = lambda b, params: ConstantInt(T.i64, 1000)
        cont = generate_continuation(func, landing, live, mapping,
                                     module=module)
        engine = ExecutionEngine(module)
        # resume at i=99 with pinned acc: result = 1000 + 99
        assert engine.run(cont.name, 100, 99, 0) == 1099

    def test_computed_compensation_code(self, module):
        """Compensation code computes the landing state from transferred
        values — here acc arrives *split in two halves*."""
        func = build_sum_loop(module)
        landing = func.get_block("loop")
        # continuation ABI: (n, i, acc_lo, acc_hi); acc = lo + hi
        from repro.ir.values import Value

        specs = [Value(T.i64, "n"), Value(T.i64, "i"),
                 Value(T.i64, "acc_lo"), Value(T.i64, "acc_hi")]
        n, i, acc = required_landing_state(func, landing)
        mapping = {
            n: 0, i: 1,
            acc: lambda b, params: b.add(params[2], params[3], "acc.glue"),
        }
        cont = generate_continuation(func, landing, specs, mapping,
                                     module=module)
        verify_function(cont)
        assert "acc.glue" in print_function(cont)
        engine = ExecutionEngine(module)
        assert engine.run(cont.name, 100, 10, 40, 5) == sum(range(100))

    def test_side_effecting_first_entry(self, module):
        src_mod = parse_module("""
@flag = global i64 0

define i64 @f(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, %n
  br i1 %c, label %loop, label %out
out:
  %v = load i64, i64* @flag
  %r = add i64 %v, %i2
  ret i64 %r
}
""")
        func = src_mod.get_function("f")
        landing = func.get_block("loop")
        live = required_landing_state(func, landing)

        def set_flag(builder, params):
            flag = src_mod.get_global("flag")
            builder.store(builder.const_i64(500), flag)
            return params[0]

        # side-effecting glue is a callable placed first
        mapping = {live[0]: set_flag}
        mapping.update({v: i for i, v in enumerate(live) if i})
        cont = generate_continuation(func, landing, live, mapping,
                                     module=src_mod)
        assert cont.entry.instructions[0].opcode == "store"
        engine = ExecutionEngine(src_mod)
        # heap adjusted by the first entry's compensation: result = 500 + n
        assert engine.run(cont.name, 10, 0) == 510

    def test_incomplete_mapping_rejected(self, module):
        func = build_sum_loop(module)
        landing = func.get_block("loop")
        live = required_landing_state(func, landing)
        # only n, mapped to index 0: membership, not truthiness, counts
        for mapping in ({live[0]: 0}, {live[0]: 0, live[2]: 2}):
            with pytest.raises(OSRError, match="missing live value"):
                generate_continuation(func, landing, live, mapping,
                                      module=module)
        with pytest.raises(OSRError, match="%i, %acc$"):
            generate_continuation(func, landing, live, {live[0]: 0},
                                  module=module)

    def test_foreign_landing_block_rejected(self, module):
        func = build_sum_loop(module)
        other = build_sum_loop(module.__class__("m2"), "other")
        live = required_landing_state(func, func.get_block("loop"))
        with pytest.raises(OSRError, match="not in variant"):
            generate_continuation(
                func, other.get_block("loop"), live, {},
                module=module,
            )

    def test_landing_at_exit_block(self, module):
        """OSR directly to the epilogue: almost everything is dead."""
        func = build_sum_loop(module)
        landing = func.get_block("done")
        live = required_landing_state(func, landing)  # just 'res'
        mapping = identity_mapping(func, landing, live)
        cont = generate_continuation(func, landing, live, mapping,
                                     module=module)
        verify_function(cont)
        engine = ExecutionEngine(module)
        assert engine.run(cont.name, 777) == 777

    def test_param_names_deduplicated(self, module):
        func = build_sum_loop(module)
        landing = func.get_block("loop")
        live = required_landing_state(func, landing)
        from repro.ir.values import Value

        specs = [Value(T.i64, "x"), Value(T.i64, "x"), Value(T.i64, "x")]
        mapping = {v: i for i, v in enumerate(live)}
        cont = generate_continuation(func, landing, specs, mapping,
                                     module=module)
        names = [a.name for a in cont.args]
        assert len(set(names)) == 3


class TestFailedGeneration:
    """A continuation joins the module only once built and verified."""

    def test_raising_compensation_leaves_module_untouched(self, module):
        func = build_sum_loop(module, "f")
        landing = func.get_block("loop")
        live = required_landing_state(func, landing)
        before = [f.name for f in module.functions]

        def refuse(builder, params):
            raise OSRError("cannot rebuild %n")

        mapping = {v: i for i, v in enumerate(live)}
        mapping[live[0]] = refuse
        with pytest.raises(OSRError, match="cannot rebuild"):
            generate_continuation(func, landing, live, mapping)
        assert [f.name for f in module.functions] == before
        verify_module(module)
        cont = generate_continuation(
            func, landing, live, {v: i for i, v in enumerate(live)})
        assert cont.name == "fto" and cont.module is module

    def test_failed_check_leaves_module_untouched(self, module):
        func = build_sum_loop(module, "f")
        landing = func.get_block("loop")
        live = required_landing_state(func, landing)
        before = [f.name for f in module.functions]
        with pytest.raises(OSRError, match="missing live value"):
            generate_continuation(func, landing, live, {live[0]: 0})
        assert [f.name for f in module.functions] == before
