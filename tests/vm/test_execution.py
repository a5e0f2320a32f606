"""Execution tests run against BOTH tiers (interpreter and JIT).

Each case is a small program with known semantics; the parametrized
fixture ensures the two tiers implement identical behaviour.
"""

import pytest

from repro.ir import parse_module
from repro.transform import PassManager
from repro.vm import ExecutionEngine, Trap

from ..conftest import make_i64_array


@pytest.fixture(params=["interp", "decoded", "jit"])
def tier(request):
    return request.param


def run(src, name, *args, tier="jit"):
    module = parse_module(src)
    engine = ExecutionEngine(module, tier=tier)
    return engine.run(name, *args)


class TestArithmetic:
    def test_wrapping_add(self, tier):
        src = """
define i8 @f(i8 %a, i8 %b) {
entry:
  %s = add i8 %a, %b
  ret i8 %s
}
"""
        assert run(src, "f", 127, 1, tier=tier) == -128

    def test_i64_overflow(self, tier):
        src = """
define i64 @f(i64 %a) {
entry:
  %s = add i64 %a, 1
  ret i64 %s
}
"""
        assert run(src, "f", 2**63 - 1, tier=tier) == -(2**63)

    def test_sdiv_negative(self, tier):
        src = """
define i64 @f(i64 %a, i64 %b) {
entry:
  %q = sdiv i64 %a, %b
  ret i64 %q
}
"""
        assert run(src, "f", -7, 2, tier=tier) == -3

    def test_division_by_zero_traps(self, tier):
        src = """
define i64 @f(i64 %a) {
entry:
  %q = sdiv i64 1, %a
  ret i64 %q
}
"""
        with pytest.raises(Trap):
            run(src, "f", 0, tier=tier)

    def test_unsigned_compare(self, tier):
        src = """
define i1 @f(i64 %a, i64 %b) {
entry:
  %c = icmp ult i64 %a, %b
  ret i1 %c
}
"""
        assert run(src, "f", -1, 0, tier=tier) == 0  # -1 is max unsigned
        assert run(src, "f", 0, -1, tier=tier) == 1

    def test_shift_semantics(self, tier):
        src = """
define i64 @f(i64 %a, i64 %s) {
entry:
  %l = shl i64 %a, %s
  %r = ashr i64 %l, %s
  ret i64 %r
}
"""
        assert run(src, "f", -5, 3, tier=tier) == -5

    def test_float_math(self, tier):
        src = """
define double @f(double %x) {
entry:
  %sq = fmul double %x, %x
  %h = fdiv double %sq, 2.0
  ret double %h
}
"""
        assert run(src, "f", 3.0, tier=tier) == 4.5

    def test_sitofp_fptosi(self, tier):
        src = """
define i64 @f(i64 %x) {
entry:
  %d = sitofp i64 %x to double
  %h = fmul double %d, 0.5
  %b = fptosi double %h to i64
  ret i64 %b
}
"""
        assert run(src, "f", 9, tier=tier) == 4

    @pytest.mark.parametrize("pipeline", ["unoptimized", "optimized"])
    def test_fptrunc_rounds_in_every_tier_and_in_the_folder(
            self, tier, pipeline):
        # the folder used to skip the f32 rounding: 0.1 at "optimized",
        # 0.10000000149011612 everywhere else
        src = """
define double @f() {
entry:
  %n = fptrunc double 0.1 to float
  %w = fpext float %n to double
  ret double %w
}
"""
        module = parse_module(src)
        PassManager.pipeline(pipeline).run_module(module)
        result = ExecutionEngine(module, tier=tier).run("f")
        assert result == 0.10000000149011612

    @pytest.mark.parametrize("pipeline", ["unoptimized", "optimized"])
    def test_fptrunc_out_of_range_is_infinity(self, tier, pipeline):
        # finite but beyond binary32: IEEE rounds to the infinity of the
        # sign (it used to escape as struct.pack's OverflowError)
        src = """
define double @f(double %x) {
entry:
  %n = fptrunc double %x to float
  %c = fptrunc double 3.5e38 to float
  %s = fadd float %n, %c
  %w = fpext float %s to double
  ret double %w
}
"""
        module = parse_module(src)
        PassManager.pipeline(pipeline).run_module(module)
        engine = ExecutionEngine(module, tier=tier)
        assert engine.run("f", 1e308) == float("inf")
        assert engine.run("f", -1e308) != engine.run("f", -1e308)  # nan


class TestControlFlow:
    def test_loop_sum(self, tier):
        src = """
define i64 @f(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %loop ]
  %acc2 = add i64 %acc, %i
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, %n
  br i1 %c, label %loop, label %out
out:
  ret i64 %acc2
}
"""
        assert run(src, "f", 101, tier=tier) == sum(range(101))

    def test_parallel_phi_swap(self, tier):
        """Phi reads must be simultaneous: a/b swap every iteration."""
        src = """
define i64 @f(i64 %n) {
entry:
  br label %loop
loop:
  %a = phi i64 [ 1, %entry ], [ %b, %loop ]
  %b = phi i64 [ 2, %entry ], [ %a, %loop ]
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, %n
  br i1 %c, label %loop, label %out
out:
  %r = mul i64 %a, 10
  %r2 = add i64 %r, %b
  ret i64 %r2
}
"""
        assert run(src, "f", 1, tier=tier) == 12
        assert run(src, "f", 2, tier=tier) == 21
        assert run(src, "f", 3, tier=tier) == 12

    def test_switch(self, tier):
        src = """
define i64 @f(i64 %x) {
entry:
  switch i64 %x, label %dflt [ i64 1, label %one i64 5, label %five ]
one:
  ret i64 100
five:
  ret i64 500
dflt:
  ret i64 -1
}
"""
        assert run(src, "f", 1, tier=tier) == 100
        assert run(src, "f", 5, tier=tier) == 500
        assert run(src, "f", 7, tier=tier) == -1

    def test_unreachable_traps(self, tier):
        src = """
define void @f() {
entry:
  unreachable
}
"""
        with pytest.raises(Trap):
            run(src, "f", tier=tier)

    def test_select(self, tier):
        src = """
define i64 @f(i64 %x) {
entry:
  %c = icmp sgt i64 %x, 0
  %s = select i1 %c, i64 %x, i64 0
  ret i64 %s
}
"""
        assert run(src, "f", 5, tier=tier) == 5
        assert run(src, "f", -5, tier=tier) == 0


class TestCallsAndMemory:
    def test_recursion(self, tier):
        src = """
define i64 @fib(i64 %n) {
entry:
  %c = icmp sle i64 %n, 1
  br i1 %c, label %base, label %rec
base:
  ret i64 %n
rec:
  %n1 = sub i64 %n, 1
  %n2 = sub i64 %n, 2
  %f1 = call i64 @fib(i64 %n1)
  %f2 = call i64 @fib(i64 %n2)
  %s = add i64 %f1, %f2
  ret i64 %s
}
"""
        assert run(src, "fib", 12, tier=tier) == 144

    def test_mutual_recursion(self, tier):
        src = """
define i1 @is_even(i64 %n) {
entry:
  %z = icmp eq i64 %n, 0
  br i1 %z, label %yes, label %rec
yes:
  ret i1 true
rec:
  %n1 = sub i64 %n, 1
  %r = call i1 @is_odd(i64 %n1)
  ret i1 %r
}

define i1 @is_odd(i64 %n) {
entry:
  %z = icmp eq i64 %n, 0
  br i1 %z, label %no, label %rec
no:
  ret i1 false
rec:
  %n1 = sub i64 %n, 1
  %r = call i1 @is_even(i64 %n1)
  ret i1 %r
}
"""
        assert run(src, "is_even", 10, tier=tier) == 1
        assert run(src, "is_odd", 10, tier=tier) == 0

    def test_alloca_array_and_gep(self, tier):
        src = """
define i64 @f() {
entry:
  %arr = alloca [8 x i64]
  %base = bitcast [8 x i64]* %arr to i64*
  br label %fill
fill:
  %i = phi i64 [ 0, %entry ], [ %i2, %fill ]
  %p = getelementptr i64, i64* %base, i64 %i
  %sq = mul i64 %i, %i
  store i64 %sq, i64* %p
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, 8
  br i1 %c, label %fill, label %read
read:
  %p5 = getelementptr i64, i64* %base, i64 5
  %v = load i64, i64* %p5
  ret i64 %v
}
"""
        assert run(src, "f", tier=tier) == 25

    def test_byte_access_through_bitcast(self, tier):
        src = """
define i64 @f() {
entry:
  %slot = alloca i64
  store i64 258, i64* %slot
  %bytes = bitcast i64* %slot to i8*
  %b0p = getelementptr i8, i8* %bytes, i64 0
  %b1p = getelementptr i8, i8* %bytes, i64 1
  %b0 = load i8, i8* %b0p
  %b1 = load i8, i8* %b1p
  %b0w = sext i8 %b0 to i64
  %b1w = sext i8 %b1 to i64
  %r = add i64 %b0w, %b1w
  ret i64 %r
}
"""
        # 258 = 0x0102 little-endian: byte0=2, byte1=1
        assert run(src, "f", tier=tier) == 3

    def test_malloc_free(self, tier):
        src = """
declare i8* @malloc(i64 %n)
declare void @free(i8* %p)

define i64 @f() {
entry:
  %raw = call i8* @malloc(i64 8)
  %p = bitcast i8* %raw to i64*
  store i64 77, i64* %p
  %v = load i64, i64* %p
  call void @free(i8* %raw)
  ret i64 %v
}
"""
        assert run(src, "f", tier=tier) == 77

    def test_use_after_free_traps_in_interpreter(self):
        # only the reference interpreter checks liveness on access; the
        # JIT tier behaves like native code (no per-access checking)
        src = """
declare i8* @malloc(i64 %n)
declare void @free(i8* %p)

define i64 @f() {
entry:
  %raw = call i8* @malloc(i64 8)
  %p = bitcast i8* %raw to i64*
  call void @free(i8* %raw)
  %v = load i64, i64* %p
  ret i64 %v
}
"""
        with pytest.raises(MemoryError):
            run(src, "f", tier="interp")

    def test_function_pointer_call(self, tier):
        src = """
define i64 @double_it(i64 %x) {
entry:
  %r = mul i64 %x, 2
  ret i64 %r
}

define i64 @apply(i64 (i64)* %fp, i64 %x) {
entry:
  %r = call i64 %fp(i64 %x)
  ret i64 %r
}
"""
        module = parse_module(src)
        engine = ExecutionEngine(module, tier=tier)
        handle = engine.handle_for(module.get_function("double_it"))
        assert engine.run("apply", handle, 21) == 42

    def test_function_pointer_compare(self, tier):
        # handles compare by identity, as a value and as a branch test
        # (the JIT's private encoding subscripted them: TypeError)
        src = """
define i64 @g(i64 %x) {
entry:
  ret i64 %x
}

define i64 @h(i64 %x) {
entry:
  ret i64 %x
}

define i64 @f() {
entry:
  %same = icmp eq i64 (i64)* @g, @g
  %diff = icmp eq i64 (i64)* @g, @h
  %s = zext i1 %same to i64
  %d = zext i1 %diff to i64
  %s2 = mul i64 %s, 2
  %sd = add i64 %s2, %d
  %ne = icmp ne i64 (i64)* @g, @h
  br i1 %ne, label %yes, label %no
yes:
  %r = add i64 %sd, 4
  ret i64 %r
no:
  ret i64 %sd
}
"""
        assert run(src, "f", tier=tier) == 6

    def test_globals(self, tier):
        src = """
@counter = global i64 10

define i64 @bump() {
entry:
  %v = load i64, i64* @counter
  %v2 = add i64 %v, 1
  store i64 %v2, i64* @counter
  ret i64 %v2
}
"""
        module = parse_module(src)
        engine = ExecutionEngine(module, tier=tier)
        assert engine.run("bump") == 11
        assert engine.run("bump") == 12

    def test_string_global(self, tier):
        src = """
@msg = constant [3 x i8] c"ok\\00"

define i64 @f() {
entry:
  %p = getelementptr [3 x i8], [3 x i8]* @msg, i64 0, i64 1
  %c = load i8, i8* %p
  %w = zext i8 %c to i64
  ret i64 %w
}
"""
        assert run(src, "f", tier=tier) == ord("k")


class TestEngineBehaviour:
    def test_unresolved_external_traps(self, tier):
        src = """
declare i64 @mystery(i64 %x)

define i64 @f() {
entry:
  %r = call i64 @mystery(i64 1)
  ret i64 %r
}
"""
        with pytest.raises(Trap, match="unresolved"):
            run(src, "f", tier=tier)

    def test_custom_native(self, tier):
        src = """
declare i64 @host_add(i64 %a, i64 %b)

define i64 @f(i64 %x) {
entry:
  %r = call i64 @host_add(i64 %x, i64 100)
  ret i64 %r
}
"""
        module = parse_module(src)
        engine = ExecutionEngine(module, tier=tier)
        engine.add_native("host_add", lambda a, b: a + b)
        assert engine.run("f", 5) == 105

    def test_lazy_compilation_counts(self):
        src = """
define i64 @a() {
entry:
  ret i64 1
}

define i64 @b() {
entry:
  %r = call i64 @a()
  ret i64 %r
}
"""
        module = parse_module(src)
        engine = ExecutionEngine(module, tier="jit")
        assert engine.compile_count == 0
        engine.run("b")
        assert engine.compile_count == 2  # b then a, on first call

    def test_invalidate_recompiles(self):
        src = """
define i64 @f() {
entry:
  ret i64 1
}
"""
        module = parse_module(src)
        engine = ExecutionEngine(module, tier="jit")
        assert engine.run("f") == 1
        # rewrite the function body, invalidate, re-run
        func = module.get_function("f")
        ret = func.entry.terminator
        from repro.ir.values import ConstantInt
        from repro.ir import types as T

        ret.set_operand(0, ConstantInt(T.i64, 2))
        engine.invalidate(func)
        assert engine.run("f") == 2

    def test_interp_step_limit(self):
        src = """
define void @spin() {
entry:
  br label %loop
loop:
  br label %loop
}
"""
        from repro.vm import StepLimitExceeded

        module = parse_module(src)
        engine = ExecutionEngine(module, tier="interp",
                                 interp_step_limit=1000)
        with pytest.raises(StepLimitExceeded):
            engine.run("spin")
