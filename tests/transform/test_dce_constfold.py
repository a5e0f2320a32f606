"""DCE and constant folding tests."""

import pytest

from repro.ir import parse_function, parse_module, verify_function
from repro.ir import types as T
from repro.ir.instructions import BinaryInst, CondBranchInst
from repro.ir.values import ConstantInt
from repro.transform.constfold import (
    fold_constants,
    fold_fcmp,
    fold_icmp,
    fold_int_binop,
)
from repro.transform.dce import eliminate_dead_blocks, eliminate_dead_code
from repro.vm import ExecutionEngine


class TestDCE:
    def test_removes_unused_chain(self):
        func = parse_function("""
define i64 @f(i64 %n) {
entry:
  %a = add i64 %n, 1
  %b = mul i64 %a, 2
  %c = sub i64 %b, 3
  ret i64 %n
}
""")
        removed = eliminate_dead_code(func)
        assert removed == 3
        assert func.instruction_count == 1
        verify_function(func)

    def test_keeps_side_effects(self):
        func = parse_function("""
declare void @effect(i64 %x)

define void @f() {
entry:
  call void @effect(i64 1)
  %dead = add i64 1, 2
  ret void
}
""")
        eliminate_dead_code(func)
        assert func.instruction_count == 2  # call + ret survive

    def test_keeps_stores_and_loads_with_uses(self):
        func = parse_function("""
define i64 @f() {
entry:
  %x = alloca i64
  store i64 1, i64* %x
  %v = load i64, i64* %x
  ret i64 %v
}
""")
        assert eliminate_dead_code(func) == 0

    def test_removes_unused_load_and_then_alloca(self):
        func = parse_function("""
define i64 @f() {
entry:
  %x = alloca i64
  %v = load i64, i64* %x
  ret i64 0
}
""")
        removed = eliminate_dead_code(func)
        assert removed == 2  # load then the now-unused alloca
        verify_function(func)

    def test_removes_dead_phi_cycle(self):
        """Two loop-carried phis that only feed each other (what minimal
        SSA leaves behind for a loop-body temporary) are dead as a web,
        though neither is ever unused."""
        module = parse_module("""
define i64 @f(i64 %n) {
entry:
  br label %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %latch ]
  %t = phi i64 [ 0, %entry ], [ %t2, %latch ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %out
body:
  %odd = and i64 %i, 1
  %isodd = icmp ne i64 %odd, 0
  br i1 %isodd, label %bump, label %latch
bump:
  %sq = mul i64 %t, %i
  br label %latch
latch:
  %t2 = phi i64 [ %t, %body ], [ %sq, %bump ]
  %i2 = add i64 %i, 1
  br label %head
out:
  ret i64 %i
}
""")
        func = module.get_function("f")
        assert eliminate_dead_code(func) == 3  # %t, %t2, %sq
        verify_function(func)
        assert [p.name for p in func.get_block("head").phis] == ["i"]
        assert func.get_block("latch").phis == []
        assert ExecutionEngine(module).run("f", 9) == 9

    def test_self_referential_phi_with_a_reader_stays(self):
        func = parse_function("""
define i64 @f(i64 %n) {
entry:
  br label %head
head:
  %x = phi i64 [ %n, %entry ], [ %x, %head ]
  %c = icmp slt i64 %x, 0
  br i1 %c, label %head, label %out
out:
  ret i64 %x
}
""")
        assert eliminate_dead_code(func) == 0

    def test_dead_blocks(self):
        func = parse_function("""
define i64 @f() {
entry:
  ret i64 1
island:
  br label %island2
island2:
  br label %island
}
""")
        assert eliminate_dead_blocks(func) == 2
        verify_function(func)


class TestFoldPrimitives:
    def test_wrapping_add(self):
        assert fold_int_binop("add", T.i8, 127, 1) == -128

    def test_sdiv_truncates_toward_zero(self):
        assert fold_int_binop("sdiv", T.i64, -7, 2) == -3
        assert fold_int_binop("sdiv", T.i64, 7, -2) == -3

    def test_srem_sign_follows_dividend(self):
        assert fold_int_binop("srem", T.i64, -7, 2) == -1
        assert fold_int_binop("srem", T.i64, 7, -2) == 1

    def test_division_by_zero_is_none(self):
        assert fold_int_binop("sdiv", T.i64, 1, 0) is None
        assert fold_int_binop("udiv", T.i64, 1, 0) is None
        assert fold_int_binop("srem", T.i64, 1, 0) is None
        assert fold_int_binop("urem", T.i64, 1, 0) is None

    def test_unsigned_division(self):
        assert fold_int_binop("udiv", T.i8, -1, 2) == 127  # 255 // 2

    def test_shifts(self):
        assert fold_int_binop("shl", T.i8, 1, 7) == -128
        assert fold_int_binop("lshr", T.i8, -128, 7) == 1
        assert fold_int_binop("ashr", T.i8, -128, 7) == -1
        assert fold_int_binop("shl", T.i8, 1, 8) is None  # over-shift

    def test_icmp_signed_vs_unsigned(self):
        assert fold_icmp("slt", T.i8, -1, 0)
        assert not fold_icmp("ult", T.i8, -1, 0)  # 255 < 0 is false

    def test_fcmp_nan_ordering(self):
        nan = float("nan")
        assert not fold_fcmp("oeq", nan, nan)
        assert fold_fcmp("uno", nan, 1.0)
        assert fold_fcmp("ord", 1.0, 2.0)


class TestFoldPass:
    def test_folds_constant_tree(self):
        func = parse_function("""
define i64 @f() {
entry:
  %a = add i64 2, 3
  %b = mul i64 %a, 4
  %c = sub i64 %b, 1
  ret i64 %c
}
""")
        fold_constants(func)
        eliminate_dead_code(func)
        ret = func.entry.terminator
        assert isinstance(ret.value, ConstantInt)
        assert ret.value.value == 19

    def test_identities(self):
        func = parse_function("""
define i64 @f(i64 %x) {
entry:
  %a = add i64 %x, 0
  %b = mul i64 %a, 1
  %c = sub i64 %b, 0
  %d = mul i64 %c, 0
  %e = add i64 %c, %d
  ret i64 %e
}
""")
        fold_constants(func)
        eliminate_dead_code(func)
        verify_function(func)
        ret = func.entry.terminator
        assert ret.value is func.args[0]

    def test_x_minus_x(self):
        func = parse_function("""
define i64 @f(i64 %x) {
entry:
  %a = sub i64 %x, %x
  ret i64 %a
}
""")
        fold_constants(func)
        assert func.entry.terminator.value.value == 0

    def test_select_folding(self):
        func = parse_function("""
define i64 @f(i64 %x) {
entry:
  %s = select i1 true, i64 %x, i64 0
  ret i64 %s
}
""")
        fold_constants(func)
        assert func.entry.terminator.value is func.args[0]

    def test_icmp_folding(self):
        func = parse_function("""
define i1 @f() {
entry:
  %c = icmp slt i64 3, 5
  ret i1 %c
}
""")
        fold_constants(func)
        assert func.entry.terminator.value.value == 1

    @pytest.mark.parametrize("widen, test", [
        ("zext i1 %c to i32", "icmp ne i32 %w, 0"),
        ("select i1 %c, i64 1, i64 0", "icmp ne i64 %w, 0"),
        ("select i1 %c, double 1.0, double 0.0", "fcmp one double %w, 0.0"),
    ])
    def test_tobool_of_widened_compare_is_the_compare(self, widen, test):
        """``if (a < b)`` as a front end without i1 conditions spells it."""
        module = parse_module(f"""
define i64 @f(i64 %a, i64 %b) {{
entry:
  %c = icmp slt i64 %a, %b
  %w = {widen}
  %tobool = {test}
  br i1 %tobool, label %yes, label %no
yes:
  ret i64 1
no:
  ret i64 0
}}
""")
        func = module.get_function("f")
        assert fold_constants(func) == 1
        eliminate_dead_code(func)
        verify_function(func)
        branch = func.entry.terminator
        assert branch.condition is func.entry.instructions[0]
        assert len(func.entry) == 2  # compare + branch
        engine = ExecutionEngine(module)
        assert engine.run("f", 1, 2) == 1
        assert engine.run("f", 2, 1) == 0

    def test_tobool_of_other_widenings_is_kept(self):
        func = parse_function("""
define i1 @f(i8 %x, i1 %c) {
entry:
  %w = zext i8 %x to i32
  %t = icmp ne i32 %w, 0
  %s = select i1 %c, i64 0, i64 1
  %u = icmp ne i64 %s, 0
  %r = and i1 %t, %u
  ret i1 %r
}
""")
        assert fold_constants(func) == 0

    def test_cast_folding(self):
        func = parse_function("""
define i64 @f() {
entry:
  %t = trunc i64 300 to i8
  %z = zext i8 %t to i64
  %s = sext i8 %t to i64
  %sum = add i64 %z, %s
  ret i64 %sum
}
""")
        fold_constants(func)
        eliminate_dead_code(func)
        # trunc 300 -> i8 44; zext 44; sext 44; 44+44
        assert func.entry.terminator.value.value == 88

    def test_division_by_zero_not_folded(self):
        func = parse_function("""
define i64 @f() {
entry:
  %d = sdiv i64 1, 0
  ret i64 %d
}
""")
        fold_constants(func)
        inst = func.entry.instructions[0]
        assert isinstance(inst, BinaryInst)  # left in place (traps at runtime)

    def test_semantics_preserved_after_folding(self):
        src = """
define i64 @f(i64 %x) {
entry:
  %a = add i64 %x, 0
  %b = mul i64 %a, 3
  %c = add i64 %b, 10
  %d = sub i64 %c, 10
  ret i64 %d
}
"""
        m1 = parse_module(src)
        e1 = ExecutionEngine(m1)
        expected = e1.run("f", 14)
        m2 = parse_module(src)
        fold_constants(m2.get_function("f"))
        e2 = ExecutionEngine(m2)
        assert e2.run("f", 14) == expected == 42
