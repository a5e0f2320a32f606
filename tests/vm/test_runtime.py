"""Runtime memory model tests."""

import gc
import math

import pytest

from repro.frontend import compile_c
from repro.ir import parse_module
from repro.ir import types as T
from repro.shootout.harness import compile_benchmark
from repro.shootout.programs import SUITE
from repro.vm import TIERS, ExecutionEngine
from repro.vm.runtime import (
    NULL,
    MemoryBuffer,
    MemoryFault,
    OutputBuffer,
    Trap,
    fpow,
    free,
    gep_offset,
    is_null,
    load_scalar,
    store_scalar,
)


class TestMemoryBuffer:
    def test_zero_initialized(self):
        buf = MemoryBuffer(16, "b")
        assert bytes(buf.data) == b"\x00" * 16

    def test_bounds_check(self):
        buf = MemoryBuffer(8, "b")
        with pytest.raises(MemoryFault):
            buf.check(4, 8)
        with pytest.raises(MemoryFault):
            buf.check(-1, 1)
        buf.check(0, 8)  # exact fit is fine

    def test_use_after_free(self):
        buf = MemoryBuffer(8, "b")
        free((buf, 0))
        with pytest.raises(MemoryFault, match="use-after-free"):
            buf.check(0, 1)


class TestScalarAccess:
    @pytest.mark.parametrize("ty,value", [
        (T.i8, -5), (T.i16, 1000), (T.i32, -123456), (T.i64, 2**62),
        (T.i8, 127), (T.i8, -128),
    ])
    def test_int_roundtrip(self, ty, value):
        buf = MemoryBuffer(8, "b")
        store_scalar(ty, (buf, 0), value)
        assert load_scalar(ty, (buf, 0)) == value

    def test_int_store_wraps(self):
        buf = MemoryBuffer(1, "b")
        store_scalar(T.i8, (buf, 0), 200)
        assert load_scalar(T.i8, (buf, 0)) == -56

    def test_i1_roundtrip(self):
        buf = MemoryBuffer(1, "b")
        store_scalar(T.i1, (buf, 0), 1)
        assert load_scalar(T.i1, (buf, 0)) == 1

    @pytest.mark.parametrize("ty,value", [(T.f64, 3.25), (T.f32, -0.5)])
    def test_float_roundtrip(self, ty, value):
        buf = MemoryBuffer(8, "b")
        store_scalar(ty, (buf, 0), value)
        assert load_scalar(ty, (buf, 0)) == value

    def test_f32_rounds(self):
        buf = MemoryBuffer(4, "b")
        store_scalar(T.f32, (buf, 0), 0.1)
        assert abs(load_scalar(T.f32, (buf, 0)) - 0.1) < 1e-7
        assert load_scalar(T.f32, (buf, 0)) != 0.1

    def test_offset_access(self):
        buf = MemoryBuffer(24, "b")
        store_scalar(T.i64, (buf, 8), 42)
        assert load_scalar(T.i64, (buf, 8)) == 42
        assert load_scalar(T.i64, (buf, 0)) == 0

    def test_pointer_cells_via_handle_heap(self):
        buf = MemoryBuffer(8, "b")
        target = MemoryBuffer(4, "t")
        store_scalar(T.ptr(T.i64), (buf, 0), (target, 2))
        loaded = load_scalar(T.ptr(T.i64), (buf, 0))
        assert loaded == (target, 2)

    def test_out_of_bounds_store(self):
        buf = MemoryBuffer(4, "b")
        with pytest.raises(MemoryFault):
            store_scalar(T.i64, (buf, 0), 1)


class TestGepOffset:
    def test_flat_pointer(self):
        assert gep_offset(T.i64, [3]) == 24
        assert gep_offset(T.i8, [5]) == 5

    def test_array_descent(self):
        assert gep_offset(T.array(4, T.i64), [0, 2]) == 16
        assert gep_offset(T.array(4, T.i64), [1, 0]) == 32

    def test_struct_descent(self):
        st = T.struct(T.ptr(T.i8), T.ptr(T.i8), T.i64)
        assert gep_offset(st, [0, 2]) == 16

    def test_nested(self):
        ty = T.array(2, T.array(3, T.i32))
        assert gep_offset(ty, [0, 1, 2]) == 12 + 8


class TestMisc:
    def test_null(self):
        assert is_null(NULL)
        assert not is_null((MemoryBuffer(1, "x"), 0))

    def test_output_buffer(self):
        out = OutputBuffer()
        out.putchar(ord("h"))
        out.write(b"i")
        assert out.getvalue() == b"hi"
        out.clear()
        assert out.getvalue() == b""


class TestFpow:
    @pytest.mark.parametrize("a,b,expected", [
        (2.0, 10.0, 1024.0), (2, -1, 0.5), (-8.0, 2.0, 64.0),
        (0.0, 0.0, 1.0), (math.inf, -1.0, 0.0), (4.0, 0.5, 2.0)])
    def test_float_results(self, a, b, expected):
        result = fpow(a, b)
        assert result.__class__ is float and result == expected

    def test_nan_propagates(self):
        assert math.isnan(fpow(math.nan, 2.0))

    def test_agrees_with_python_pow_where_that_is_a_float(self):
        values = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -3.0,
                  7.25, 1e308, 1e-308, 5e-324, math.inf, -math.inf,
                  math.nan]
        for a in values:
            for b in values:
                try:
                    want = a ** b
                except (ZeroDivisionError, OverflowError):
                    want = None
                if want.__class__ is not float:
                    with pytest.raises(Trap):
                        fpow(a, b)
                    continue
                got = fpow(a, b)
                if math.isnan(want):
                    assert math.isnan(got), (a, b)
                else:
                    assert got == want, (a, b)
                    assert math.copysign(1, got) == math.copysign(1, want)

    @pytest.mark.parametrize("a,b", [
        (-8.0, 0.5),    # domain: Python's result is complex
        (0.0, -1.0),    # pole
        (0, -1),
        (1e308, 2.0),   # overflow
    ])
    def test_errors_trap(self, a, b):
        with pytest.raises(Trap, match="float trap in pow"):
            fpow(a, b)


_POW_C = "double p(double x, double y) { return pow(x, y); }"


@pytest.mark.parametrize("tier", TIERS)
def test_c_pow_errors_trap_in_every_tier(tier):
    engine = ExecutionEngine(compile_c(_POW_C), tier=tier)
    assert engine.run("p", 2.0, 10.0) == 1024.0
    for x, y in ((-8.0, 0.5), (0.0, -1.0), (1e308, 2.0)):
        with pytest.raises(Trap):
            engine.run("p", x, y)


# -- the null pointer, in every tier -------------------------------------------

_NULL = """
declare void @free(i8* %p)

define i64 @load_at(i64 %x) {
entry:
  %p = inttoptr i64 %x to i64*
  %v = load i64, i64* %p
  ret i64 %v
}

define i64 @store_at(i64 %x) {
entry:
  %p = inttoptr i64 %x to double*
  store double 1.5, double* %p
  ret i64 0
}

define i64 @load_byte_past(i64 %i) {
entry:
  %q = getelementptr i8, i8* inttoptr (i64 0 to i8*), i64 %i
  %v = load i8, i8* %q
  %w = zext i8 %v to i64
  ret i64 %w
}

define i64 @store_cell(i64 %x) {
entry:
  %p = inttoptr i64 %x to i8**
  store i8* null, i8** %p
  ret i64 0
}

define i64 @free_null_then_load() {
entry:
  call void @free(i8* null)
  %v = load i64, i64* null
  ret i64 %v
}

define i64 @null_is_zero() {
entry:
  %p = inttoptr i64 0 to i8*
  %c = icmp eq i8* %p, null
  %a = ptrtoint i8* null to i64
  %z = icmp eq i64 %a, 0
  %both = and i1 %c, %z
  %r = zext i1 %both to i64
  ret i64 %r
}
"""


@pytest.mark.parametrize("tier", ["interp", "decoded", "jit", "tiered"])
@pytest.mark.parametrize("name,args", [
    ("load_at", (0,)), ("store_at", (0,)), ("load_byte_past", (16,)),
    ("store_cell", (0,)), ("free_null_then_load", ()),
])
def test_access_through_null_traps_in_every_tier(tier, name, args):
    engine = ExecutionEngine(parse_module(_NULL), tier=tier,
                             call_threshold=2)
    # under ``tiered`` the second call promotes: both sides must trap
    for _ in range(3):
        with pytest.raises(Trap, match="null pointer"):
            engine.run(name, *args)


@pytest.mark.parametrize("tier", TIERS)
def test_address_zero_is_the_null_pointer(tier):
    engine = ExecutionEngine(parse_module(_NULL), tier=tier,
                             call_threshold=2)
    for _ in range(3):
        assert engine.run("null_is_zero") == 1


# -- pointer cells, in every tier ---------------------------------------------

_CELLS = """
declare i8* @malloc(i64 %n)
declare i8* @memcpy(i8* %d, i8* %s, i64 %n)
declare i8* @memset(i8* %d, i64 %v, i64 %n)

define i64* @boxed(i64 %v) {
entry:
  %raw = call i8* @malloc(i64 8)
  %p = bitcast i8* %raw to i64*
  store i64 %v, i64* %p
  ret i64* %p
}

define i64 @copied() {
entry:
  %x = call i64* @boxed(i64 40)
  %y = call i64* @boxed(i64 2)
  %s = call i8* @malloc(i64 16)
  %s0 = bitcast i8* %s to i64**
  store i64* %x, i64** %s0
  %s1 = getelementptr i64*, i64** %s0, i64 1
  store i64* %y, i64** %s1
  %d = call i8* @malloc(i64 16)
  %c = call i8* @memcpy(i8* %d, i8* %s, i64 16)
  %d0 = bitcast i8* %d to i64**
  %a = load i64*, i64** %d0
  %d1 = getelementptr i64*, i64** %d0, i64 1
  %b = load i64*, i64** %d1
  %av = load i64, i64* %a
  %bv = load i64, i64* %b
  %sum = add i64 %av, %bv
  %same_a = icmp eq i64* %a, %x
  %same_b = icmp eq i64* %b, %y
  %both = and i1 %same_a, %same_b
  %flag = zext i1 %both to i64
  %flag1000 = mul i64 %flag, 1000
  %r = add i64 %sum, %flag1000
  ret i64 %r
}

define i64 @cleared() {
entry:
  %x = call i64* @boxed(i64 40)
  %s = call i8* @malloc(i64 8)
  %s0 = bitcast i8* %s to i64**
  store i64* %x, i64** %s0
  %z = call i8* @memset(i8* %s, i64 0, i64 8)
  %a = load i64*, i64** %s0
  %null = icmp eq i64* %a, null
  %r = zext i1 %null to i64
  ret i64 %r
}

define i64 @overwritten() {
entry:
  %x = call i64* @boxed(i64 40)
  %s = call i8* @malloc(i64 8)
  %s0 = bitcast i8* %s to i64**
  store i64* %x, i64** %s0
  %si = bitcast i8* %s to i64*
  store i64 5, i64* %si
  %a = load i64*, i64** %s0
  %v = load i64, i64* %a
  ret i64 %v
}
"""


@pytest.mark.parametrize("tier", TIERS)
class TestPointerCells:
    """A stored pointer lives in its buffer's ``cells``: it travels with
    ``memcpy``, ``memset`` clears it, and an integer store over it
    leaves bytes that are no pointer."""

    def engine(self, tier):
        return ExecutionEngine(parse_module(_CELLS), tier=tier)

    def test_memcpy_of_a_struct_keeps_its_pointers(self, tier):
        assert self.engine(tier).run("copied") == 1042

    def test_memset_to_zero_loads_null(self, tier):
        assert self.engine(tier).run("cleared") == 1

    def test_integer_store_over_a_cell_makes_its_load_fail(self, tier):
        with pytest.raises(MemoryFault, match="corrupt pointer cell"):
            self.engine(tier).run("overwritten")

    def test_buffers_do_not_outlive_their_runs(self, tier):
        """b-trees stores a pointer per child: every tree it frees must
        go, cells included, so repeated runs leave the live buffer count
        where it was."""
        def live():
            gc.collect()
            return sum(isinstance(o, MemoryBuffer) for o in gc.get_objects())

        engine = ExecutionEngine(
            compile_benchmark(SUITE["b-trees"], "optimized"), tier=tier)
        for _ in range(2):
            assert engine.run("btrees", 4) == 590
        before = live()
        for _ in range(10):
            assert engine.run("btrees", 4) == 590
        assert live() <= before
