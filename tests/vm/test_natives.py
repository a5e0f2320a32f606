"""Native (host-function) symbol tests: default natives, output capture,
math helpers and the object table."""

import math

import pytest

from repro.ir import parse_module
from repro.vm import TIERS, ExecutionEngine
from repro.vm.engine import ObjectTable


def engine_for(src, tier="jit"):
    module = parse_module(src)
    return ExecutionEngine(module, tier=tier), module


class TestOutputNatives:
    def test_putchar_collects(self):
        engine, _ = engine_for("""
declare i32 @putchar(i32 %c)

define void @f() {
entry:
  %a = call i32 @putchar(i32 104)
  %b = call i32 @putchar(i32 105)
  ret void
}
""")
        engine.run("f")
        assert engine.stdout.getvalue() == b"hi"

    def test_puts_stops_at_nul(self):
        engine, _ = engine_for("""
@msg = constant [6 x i8] c"ok\\00xx\\00"
declare i32 @puts(i8* %s)

define void @f() {
entry:
  %p = getelementptr [6 x i8], [6 x i8]* @msg, i64 0, i64 0
  %r = call i32 @puts(i8* %p)
  ret void
}
""")
        engine.run("f")
        assert engine.stdout.getvalue() == b"ok\n"

    def test_print_i64_and_f64(self):
        engine, _ = engine_for("""
declare void @print_i64(i64 %v)
declare void @print_f64(double %v)

define void @f() {
entry:
  call void @print_i64(i64 -42)
  call void @print_f64(double 1.5)
  ret void
}
""")
        engine.run("f")
        out = engine.stdout.getvalue()
        assert out.startswith(b"-42")
        assert b"1.5" in out


class TestMathNatives:
    @pytest.mark.parametrize("name,arg,expected", [
        ("sqrt", 9.0, 3.0),
        ("sin", 0.0, 0.0),
        ("cos", 0.0, 1.0),
        ("floor", 2.7, 2.0),
        ("fabs", -3.5, 3.5),
        ("exp", 0.0, 1.0),
        ("log", 1.0, 0.0),
    ])
    def test_unary_math(self, name, arg, expected):
        engine, _ = engine_for(f"""
declare double @{name}(double %x)

define double @f(double %x) {{
entry:
  %r = call double @{name}(double %x)
  ret double %r
}}
""")
        assert engine.run("f", arg) == pytest.approx(expected)

    def test_pow(self):
        engine, _ = engine_for("""
declare double @pow(double %a, double %b)

define double @f(double %a, double %b) {
entry:
  %r = call double @pow(double %a, double %b)
  ret double %r
}
""")
        assert engine.run("f", 2.0, 10.0) == 1024.0

    def test_exp_saturates_instead_of_overflowing(self):
        engine, _ = engine_for("""
declare double @exp(double %x)

define double @f(double %x) {
entry:
  %r = call double @exp(double %x)
  ret double %r
}
""")
        assert engine.run("f", 10_000.0) == math.exp(700.0)

    def test_memcpy_memset(self):
        engine, _ = engine_for("""
declare i8* @malloc(i64 %n)
declare i8* @memcpy(i8* %d, i8* %s, i64 %n)
declare i8* @memset(i8* %d, i64 %v, i64 %n)

define i64 @f() {
entry:
  %a = call i8* @malloc(i64 8)
  %b = call i8* @malloc(i64 8)
  %x = call i8* @memset(i8* %a, i64 7, i64 8)
  %y = call i8* @memcpy(i8* %b, i8* %a, i64 8)
  %p = getelementptr i8, i8* %b, i64 5
  %v = load i8, i8* %p
  %w = zext i8 %v to i64
  ret i64 %w
}
""")
        assert engine.run("f") == 7


class TestObjectTable:
    def test_intern_is_stable(self):
        table = ObjectTable()
        obj = object()
        h1 = table.intern(obj)
        h2 = table.intern(obj)
        assert h1 == h2
        assert table.resolve(h1) is obj

    def test_distinct_objects_distinct_handles(self):
        table = ObjectTable()
        assert table.intern(object()) != table.intern(object())

    def test_dangling_handle_traps(self):
        from repro.vm import Trap

        table = ObjectTable()
        with pytest.raises(Trap):
            table.resolve(999)

    def test_ptrtoint_inttoptr_roundtrip(self):
        engine, module = engine_for("""
define i8* @f(i8* %p) {
entry:
  %h = ptrtoint i8* %p to i64
  %q = inttoptr i64 %h to i8*
  ret i8* %q
}
""")
        from repro.vm import MemoryBuffer

        pointer = (MemoryBuffer(4, "x"), 0)
        assert engine.run("f", pointer) == pointer


@pytest.mark.parametrize("tier", ["interp", "decoded", "jit", "tiered"])
class TestPutsChecksItsString:
    """``puts`` reads from its pointer to the first NUL: a pointer below
    the buffer, into a freed one or null, and a string that runs off the
    end with no NUL are memory faults, and print nothing."""

    SRC = """
declare i32 @puts(i8* %s)
declare void @free(i8* %p)

define i32 @at(i8* %p, i64 %k) {
entry:
  %q = getelementptr i8, i8* %p, i64 %k
  %r = call i32 @puts(i8* %q)
  ret i32 %r
}

define i32 @after_free(i8* %p) {
entry:
  call void @free(i8* %p)
  %r = call i32 @puts(i8* %p)
  ret i32 %r
}

define i32 @null() {
entry:
  %r = call i32 @puts(i8* null)
  ret i32 %r
}
"""

    @staticmethod
    def _string():
        from repro.vm import MemoryBuffer

        buf = MemoryBuffer(4, "s")
        buf.data[:] = b"ab\0z"
        return (buf, 0)

    def test_in_bounds_prints_to_the_nul(self, tier):
        engine = ExecutionEngine(parse_module(self.SRC), tier=tier,
                                 call_threshold=2)
        string = self._string()
        for k in (0, 1, 2):
            assert engine.run("at", string, k) == 0
        assert engine.stdout.getvalue() == b"ab\nb\n\n"

    def test_bad_strings_fault_and_print_nothing(self, tier):
        from repro.vm import MemoryFault

        engine = ExecutionEngine(parse_module(self.SRC), tier=tier,
                                 call_threshold=2)
        for _ in range(3):  # ``tiered`` promotes on the second call
            for k in (-2, -1, 3, 4, 5):
                with pytest.raises(MemoryFault):
                    engine.run("at", self._string(), k)
            with pytest.raises(MemoryFault, match="use-after-free"):
                engine.run("after_free", self._string())
            with pytest.raises(MemoryFault, match="null pointer"):
                engine.run("null")
        assert engine.stdout.getvalue() == b""


@pytest.mark.parametrize("tier", TIERS)
class TestHostIntegersEnterCanonical:
    """An integer a native returns, directly or through a function
    pointer, or ``engine.run``/``engine.call`` passes in, is wrapped into
    its declared type's range where it enters, as a value computed in IR
    is: stored to an ``i8``/``i16``/``i32``/``i64`` slot and loaded back,
    it reads the same on every tier."""

    SRC = """
declare i8 @host8()
declare i32 @host32()

define i8 @apply8(i8 ()* %fp) {
entry:
  %p = alloca i8
  %v = call i8 %fp()
  store i8 %v, i8* %p
  %r = load i8, i8* %p
  ret i8 %r
}

define i8 @through_pointer() {
entry:
  %r = call i8 @apply8(i8 ()* @host8)
  ret i8 %r
}

define i64 @stored64(i64 %v) {
entry:
  %p = alloca i64
  store i64 %v, i64* %p
  %r = load i64, i64* %p
  ret i64 %r
}

define i8 @native8() {
entry:
  %p = alloca i8
  %v = call i8 @host8()
  store i8 %v, i8* %p
  %r = load i8, i8* %p
  ret i8 %r
}

define i32 @native32() {
entry:
  %p = alloca i32
  %v = call i32 @host32()
  store i32 %v, i32* %p
  %r = load i32, i32* %p
  ret i32 %r
}

define i16 @argument16(i16 %v) {
entry:
  %p = alloca i16
  store i16 %v, i16* %p
  %r = load i16, i16* %p
  ret i16 %r
}
"""

    def test_native_results(self, tier):
        engine = ExecutionEngine(parse_module(self.SRC), tier=tier,
                                 call_threshold=2)
        engine.add_native("host8", lambda: 300)
        engine.add_native("host32", lambda: 2 ** 32 + 7)
        for _ in range(6):  # past promotion and speculation's decision
            assert engine.run("native8") == 44
            assert engine.run("native32") == 7
            assert engine.run("through_pointer") == 44

    def test_run_arguments(self, tier):
        module = parse_module(self.SRC)
        engine = ExecutionEngine(module, tier=tier, call_threshold=2)
        stored64 = module.get_function("stored64")
        for _ in range(6):
            assert engine.run("argument16", 40000) == 40000 - 2 ** 16
            assert engine.run("argument16", -1) == -1
            assert engine.call(stored64, [2 ** 64 + 5]) == 5
            assert engine.call(stored64, [2 ** 63]) == -2 ** 63


class TestMixedTiers:
    SRC = """
define i64 @leaf(i64 %x) {
entry:
  %r = mul i64 %x, 2
  ret i64 %r
}

define i64 @top(i64 %x) {
entry:
  %r = call i64 @leaf(i64 %x)
  %r2 = add i64 %r, 1
  ret i64 %r2
}
"""

    def test_per_function_tier_override(self):
        engine, module = engine_for(self.SRC, tier="jit")
        engine.set_tier(module.get_function("leaf"), "interp")
        assert engine.run("top", 10) == 21
        # the leaf executable is an interpreter thunk, the top is JIT code
        leaf = engine.get_compiled(module.get_function("leaf"))
        top = engine.get_compiled(module.get_function("top"))
        assert leaf.__name__.startswith("interp_")
        assert top.__name__.startswith("_jit_")

    def test_override_back_to_jit(self):
        engine, module = engine_for(self.SRC, tier="interp")
        engine.set_tier(module.get_function("leaf"), "jit")
        assert engine.run("top", 1) == 3
        leaf = engine.get_compiled(module.get_function("leaf"))
        assert leaf.__name__.startswith("_jit_")

    def test_bad_tier_rejected(self):
        engine, module = engine_for(self.SRC)
        with pytest.raises(ValueError):
            engine.set_tier(module.get_function("leaf"), "native")

    def test_osr_with_interpreted_continuation(self):
        """Deopt-to-interpreter: the OSR continuation runs in the
        interpreter tier while everything else stays JIT-compiled."""
        from repro.core import HotCounterCondition, insert_resolved_osr_point
        from repro.ir import parse_module

        module = parse_module("""
define i64 @hot(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %loop ]
  %acc2 = add i64 %acc, %i
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, %n
  br i1 %c, label %loop, label %done
done:
  ret i64 %acc2
}
""")
        from repro.vm import ExecutionEngine

        engine = ExecutionEngine(module, tier="jit")
        func = module.get_function("hot")
        loop = func.get_block("loop")
        point = insert_resolved_osr_point(
            func, loop.instructions[loop.first_non_phi_index],
            HotCounterCondition(10), engine=engine,
        )
        engine.set_tier(point.continuation, "interp")
        assert engine.run("hot", 500) == sum(range(500))
        cont = engine.get_compiled(point.continuation)
        # resolved-OSR entrypoints always carry the fire probe; the tier
        # thunk it fronts is reachable through __wrapped__
        assert cont.__name__.startswith("osrfire_")
        assert cont.__wrapped__.__name__.startswith("interp_")


class TestRemoveNative:
    SRC = """
declare i64 @host_add(i64 %a, i64 %b)

define i64 @f(i64 %x) {
entry:
  %r = call i64 @host_add(i64 %x, i64 100)
  ret i64 %r
}
"""

    @pytest.mark.parametrize("tier", ["interp", "decoded", "jit"])
    def test_a_removed_native_no_longer_resolves(self, tier):
        from repro.vm import Trap

        engine, _ = engine_for(self.SRC, tier=tier)
        engine.add_native("host_add", lambda a, b: a + b)
        engine.remove_native("host_add")
        with pytest.raises(Trap, match="unresolved external symbol"):
            engine.run("f", 5)

    def test_code_bound_before_removal_keeps_calling_it(self):
        from repro.vm import Trap

        engine, module = engine_for(self.SRC)
        engine.add_native("host_add", lambda a, b: a + b)
        assert engine.run("f", 5) == 105
        engine.remove_native("host_add")
        assert engine.run("f", 6) == 106  # the JIT'd slot holds the host fn
        engine.invalidate(module.get_function("f"))
        with pytest.raises(Trap, match="unresolved external symbol"):
            engine.run("f", 7)  # recompiled code cannot resolve it

    def test_removing_an_unbound_name_is_a_no_op(self):
        engine, _ = engine_for(self.SRC)
        before = dict(engine._natives)
        engine.remove_native("never_bound")
        assert engine._natives == before
