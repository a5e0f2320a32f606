"""A guest memory fault is one ``MemoryFault`` on every tier.

The rows below are the accesses where the JIT's typed views could
disagree with the bounds-checked interpreter: a freed buffer, an index
below the buffer (a view wraps a negative index), one past its end, a
pointer whose offset is negative.  Each must raise ``MemoryFault`` on
all five tiers -- under ``tiered`` and ``speculative`` on both sides of
the promotion -- while a host ``IndexError`` or ``ValueError`` raised
inside a native stays that host exception.
"""

import math
import struct

import pytest

from repro.ir import parse_module
from repro.transform.constfold import round_f32
from repro.vm import ExecutionEngine, MemoryBuffer, MemoryFault
from repro.vm.runtime import bind_view, free, view_fault

ALL_TIERS = ("interp", "decoded", "jit", "tiered", "speculative")

_ROWS = """
declare i8* @malloc(i64 %n)
declare void @free(i8* %p)

define i64 @load_after_free() {
entry:
  %raw = call i8* @malloc(i64 16)
  %p = bitcast i8* %raw to i64*
  store i64 5, i64* %p
  call void @free(i8* %raw)
  %v = load i64, i64* %p
  ret i64 %v
}

define i64 @load_at(i64* %p, i64 %i) {
entry:
  %q = getelementptr i64, i64* %p, i64 %i
  %v = load i64, i64* %q
  ret i64 %v
}

define i64 @load_below(i64* %p) {
entry:
  %q = getelementptr i64, i64* %p, i64 -1
  %v = load i64, i64* %q
  ret i64 %v
}

define i64 @store_at(i64* %p, i64 %i, i64 %v) {
entry:
  %q = getelementptr i64, i64* %p, i64 %i
  store i64 %v, i64* %q
  ret i64 0
}

define i64 @load_past_end(i64* %p, i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  %s = phi i64 [ 0, %entry ], [ %s1, %loop ]
  %q = getelementptr i64, i64* %p, i64 %i
  %v = load i64, i64* %q
  %s1 = add i64 %s, %v
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, %n
  br i1 %c, label %loop, label %out
out:
  ret i64 %s1
}

define i64 @first(i64* %p) {
entry:
  %v = load i64, i64* %p
  ret i64 %v
}

define i64 @second(i64* %p) {
entry:
  %q = getelementptr i64, i64* %p, i64 1
  %v = load i64, i64* %q
  ret i64 %v
}

define i64 @from_below(i64* %p) {
entry:
  %q = getelementptr i64, i64* %p, i64 -1
  %v = call i64 @first(i64* %q)
  ret i64 %v
}

define i64 @from_below_ok(i64* %p) {
entry:
  %q = getelementptr i64, i64* %p, i64 -1
  %v = call i64 @second(i64* %q)
  ret i64 %v
}

define i64 @byte_at(i8* %p, i64 %i) {
entry:
  %q = getelementptr i8, i8* %p, i64 %i
  %v = load i8, i8* %q
  %w = sext i8 %v to i64
  ret i64 %w
}

define i64 @flag_at(i1* %p, i64 %i) {
entry:
  %q = getelementptr i1, i1* %p, i64 %i
  %v = load i1, i1* %q
  %w = zext i1 %v to i64
  ret i64 %w
}
"""


def _engine(tier: str, source: str = _ROWS, **options) -> ExecutionEngine:
    return ExecutionEngine(parse_module(source), tier=tier,
                           call_threshold=2, **options)


def _buffer(*values: int) -> MemoryBuffer:
    buf = MemoryBuffer(8 * len(values), "host")
    for index, value in enumerate(values):
        buf.data[8 * index:8 * index + 8] = value.to_bytes(8, "little",
                                                           signed=True)
    return buf


@pytest.mark.parametrize("tier", ALL_TIERS)
class TestEveryTierFaults:
    """Four calls each: under ``tiered`` and ``speculative`` the second
    promotes, so the fault is checked on both sides."""

    def faults(self, engine, name, *args):
        for _ in range(4):
            with pytest.raises(MemoryFault):
                engine.run(name, *args)

    def test_load_after_free(self, tier):
        self.faults(_engine(tier), "load_after_free")

    def test_load_at_gep_minus_one(self, tier):
        buf = _buffer(1, 2, 3)
        engine = _engine(tier)
        self.faults(engine, "load_below", (buf, 0))
        self.faults(engine, "load_at", (buf, 0), -1)
        self.faults(engine, "load_at", (buf, 8), -2)
        assert engine.run("load_at", (buf, 8), -1) == 1

    def test_store_at_gep_minus_one_writes_nothing(self, tier):
        buf = _buffer(1, 2, 3)
        engine = _engine(tier)
        self.faults(engine, "store_at", (buf, 0), -1, 99)
        # a view indexed at -1 would have written the last element
        assert [engine.run("load_at", (buf, 0), i) for i in range(3)] == [
            1, 2, 3]

    def test_load_past_the_end(self, tier):
        buf = _buffer(1, 2, 3)
        engine = _engine(tier)
        self.faults(engine, "load_past_end", (buf, 0), 4)
        self.faults(engine, "load_at", (buf, 0), 3)
        self.faults(engine, "load_at", (buf, 16), 1)
        assert engine.run("load_past_end", (buf, 0), 3) == 6

    def test_negative_offset_pointer_indexed_from_zero(self, tier):
        buf = _buffer(7, 8)
        engine = _engine(tier)
        self.faults(engine, "from_below", (buf, 0))
        self.faults(engine, "first", (buf, -8))
        for _ in range(4):
            assert engine.run("from_below_ok", (buf, 0)) == 7
            assert engine.run("second", (buf, -8)) == 7

    def test_offset_off_the_element_grid(self, tier):
        buf = MemoryBuffer(20, "host")
        buf.data[3:11] = (-4).to_bytes(8, "little", signed=True)
        engine = _engine(tier)
        for _ in range(4):
            assert engine.run("first", (buf, 3)) == -4
        self.faults(engine, "second", (buf, 5))
        self.faults(engine, "first", (buf, -3))

    def test_bytes_and_flags(self, tier):
        buf = MemoryBuffer(4, "host")
        buf.data[:] = bytes([1, 0xFE, 3, 2])
        engine = _engine(tier)
        for _ in range(4):
            assert engine.run("byte_at", (buf, 0), 1) == -2
            assert engine.run("flag_at", (buf, 0), 2) == 1
            assert engine.run("flag_at", (buf, 0), 3) == 0
        for name in ("byte_at", "flag_at"):
            self.faults(engine, name, (buf, 0), -1)
            self.faults(engine, name, (buf, 0), 4)
            self.faults(engine, name, (buf, 2), -3)

    def test_a_freed_host_buffer(self, tier):
        buf = _buffer(1, 2)
        engine = _engine(tier)
        for _ in range(4):
            assert engine.run("load_at", (buf, 0), 1) == 2
        free((buf, 0))
        self.faults(engine, "load_at", (buf, 0), 1)
        self.faults(engine, "store_at", (buf, 0), 0, 1)


def test_tiered_faults_identically_before_and_after_promotion():
    buf = _buffer(1, 2, 3)
    engine = _engine("tiered")
    messages = []
    for _ in range(4):
        with pytest.raises(MemoryFault) as info:
            engine.run("load_past_end", (buf, 0), 5)
        messages.append(type(info.value))
    assert engine.stats_snapshot()["counters"]["tier.promote"] >= 1
    assert messages == [MemoryFault] * 4
    assert engine.run("load_past_end", (buf, 0), 3) == 6


_NATIVES = """
declare i64 @host(i64 %x)
declare double @sqrt(double %x)

define i64 @calls_host(i64* %p, i64 %x) {
entry:
  %v = load i64, i64* %p
  %r = call i64 @host(i64 %x)
  %s = add i64 %v, %r
  ret i64 %s
}

define double @root(double* %p) {
entry:
  %v = load double, double* %p
  %r = call double @sqrt(double %v)
  ret double %r
}
"""


@pytest.mark.parametrize("tier", ALL_TIERS)
@pytest.mark.parametrize("error", [IndexError, ValueError])
def test_a_native_host_error_stays_a_host_error(tier, error):
    def host(x):
        if x < 0:
            raise error("raised by the host")
        return x

    engine = _engine(tier, _NATIVES)
    engine.add_native("host", host)
    buf = _buffer(10)
    for _ in range(4):
        assert engine.run("calls_host", (buf, 0), 2) == 12
        with pytest.raises(error, match="raised by the host"):
            engine.run("calls_host", (buf, 0), -1)


@pytest.mark.parametrize("tier", ALL_TIERS)
def test_a_builtin_native_value_error_stays_a_host_error(tier):
    # ``sqrt`` is ``math.sqrt`` itself: its ValueError is raised in the
    # calling JIT frame, beside that frame's own view accesses
    engine = _engine(tier, _NATIVES)
    buf = MemoryBuffer(8, "host")
    for value in (4.0, -1.0):
        struct.pack_into("<d", buf.data, 0, value)
        for _ in range(3):
            if value > 0:
                assert engine.run("root", (buf, 0)) == 2.0
            else:
                with pytest.raises(ValueError, match="math domain"):
                    engine.run("root", (buf, 0))


_COPIES = """
declare i8* @malloc(i64 %n)
declare void @free(i8* %p)
declare i8* @memcpy(i8* %d, i8* %s, i64 %n)
declare i8* @memset(i8* %d, i64 %v, i64 %n)

define i64 @memcpy_grows() {
entry:
  %dst = call i8* @malloc(i64 8)
  %src = call i8* @malloc(i64 32)
  %r = call i8* @memcpy(i8* %dst, i8* %src, i64 32)
  %p = bitcast i8* %dst to i64*
  %q = getelementptr i64, i64* %p, i64 3
  %v = load i64, i64* %q
  ret i64 %v
}

define i64 @memcpy_from_short() {
entry:
  %dst = call i8* @malloc(i64 32)
  %src = call i8* @malloc(i64 8)
  %r = call i8* @memcpy(i8* %dst, i8* %src, i64 32)
  ret i64 0
}

define i64 @memset_freed() {
entry:
  %dst = call i8* @malloc(i64 8)
  call void @free(i8* %dst)
  %r = call i8* @memset(i8* %dst, i64 1, i64 8)
  ret i64 0
}

define i64 @memset_in_bounds() {
entry:
  %dst = call i8* @malloc(i64 16)
  %mid = getelementptr i8, i8* %dst, i64 8
  %r = call i8* @memset(i8* %mid, i64 1, i64 8)
  %p = bitcast i8* %dst to i64*
  %q = getelementptr i64, i64* %p, i64 1
  %v = load i64, i64* %q
  ret i64 %v
}
"""


@pytest.mark.parametrize("tier", ["interp", "decoded", "jit", "tiered"])
class TestCopiesCheckTheirRanges:
    def test_memcpy_past_the_destination_faults(self, tier):
        engine = _engine(tier, _COPIES)
        for name in ("memcpy_grows", "memcpy_from_short"):
            for _ in range(3):
                with pytest.raises(MemoryFault):
                    engine.run(name)

    def test_memset_on_a_freed_buffer_faults(self, tier):
        engine = _engine(tier, _COPIES)
        for _ in range(3):
            with pytest.raises(MemoryFault, match="use-after-free"):
                engine.run("memset_freed")

    def test_in_bounds_copies_still_work(self, tier):
        engine = _engine(tier, _COPIES)
        for _ in range(3):
            assert engine.run("memset_in_bounds") == 0x0101010101010101

    def test_a_buffer_keeps_its_length(self, tier):
        engine = _engine(tier, _COPIES)
        memcpy = engine._natives["memcpy"].callable
        dst, src = MemoryBuffer(8, "d"), MemoryBuffer(32, "s")
        with pytest.raises(MemoryFault):
            memcpy((dst, 0), (src, 0), 32)
        with pytest.raises(MemoryFault):
            memcpy((dst, 4), (src, 0), 8)
        assert len(dst) == 8


_F32 = """
define float @doubled(float %x) {
entry:
  %p = alloca float
  %y = fadd float %x, %x
  store float %y, float* %p
  %v = load float, float* %p
  ret float %v
}

define float @doubled_off_grid(float %x) {
entry:
  %raw = alloca [12 x i8]
  %b = getelementptr [12 x i8], [12 x i8]* %raw, i64 0, i64 2
  %p = bitcast i8* %b to float*
  %y = fadd float %x, %x
  store float %y, float* %p
  %v = load float, float* %p
  ret float %v
}
"""


@pytest.mark.parametrize("tier", ALL_TIERS)
@pytest.mark.parametrize("name", ["doubled", "doubled_off_grid"])
def test_float32_store_beyond_its_range_is_infinite(tier, name):
    engine = _engine(tier, _F32)
    for _ in range(4):
        for x in (3e38, -3e38):
            assert engine.run(name, x) == round_f32(2 * x)
            assert engine.run(name, x) == math.copysign(math.inf, x)
        assert engine.run(name, 0.1) == round_f32(0.2)


def test_views_are_made_on_first_bind_and_released_by_free():
    buf = MemoryBuffer(12, "b")
    assert not vars(buf)  # an allocation pays for none
    view, index = bind_view(buf, 8, "q")
    assert (len(view), index) == (1, 1)  # the odd tail is not an element
    assert bind_view(buf, 0, "q")[0] is view
    assert bind_view(buf, 3, "q")[0] is not view  # off the element grid
    assert buf.views == (view,)
    free((buf, 0))
    for late in (view, bind_view(buf, 0, "i")[0]):  # bound before, after
        with pytest.raises(ValueError):
            late[0]
    assert len(buf) == 12  # no buffer's length ever changes


def test_views_bound_in_the_deepest_loop_the_jit_nests():
    # the function's fault handler and a bind's ``try`` add two blocks to
    # the loops' fifteen: still inside CPython's static block limit
    from .test_jit_codegen import deep_loop_nest

    depth = 15
    source = deep_loop_nest(depth).replace(
        "define i64 @f(i64 %n) {", "define i64 @f(i64 %n, i64* %p) {"
    ).replace(f"l{depth - 1}:\n", f"""l{depth - 1}:
  %r = bitcast i64* %p to i64*
  %v = load i64, i64* %r
  %w = add i64 %v, 1
  store i64 %w, i64* %r
""")
    for tier in ("jit", "interp"):
        engine = _engine(tier, source)
        buf = _buffer(0)
        assert engine.run("f", 1, (buf, 0)) == 7
        assert engine.run("f", 1, (buf, 0)) == 7
        assert buf.data[0] == 2
        thunk = engine.get_compiled(engine.module.get_function("f"))
        assert not hasattr(thunk, "__jit_fallback__")
        with pytest.raises(MemoryFault):
            engine.run("f", 1, (buf, 8))


def test_a_host_whose_views_do_not_fit_keeps_the_struct_path(monkeypatch):
    from repro.vm import runtime

    monkeypatch.setattr(runtime, "_VIEWS_FIT", False)  # a big-endian host
    buf = _buffer(1, 2, 3)
    engine = _engine("jit")
    assert engine.run("load_past_end", (buf, 0), 3) == 6
    engine.run("store_at", (buf, 0), 2, 9)
    assert engine.run("load_at", (buf, 8), 1) == 9
    for args in ((-1,), (3,)):
        with pytest.raises(MemoryFault):
            engine.run("load_at", (buf, 0), *args)
    assert buf.views == ()  # every bind took the struct path


_GUARDED = """
define i64 @guarded(i64* %p, i64 %i) {
entry:
  %c = icmp sge i64 %i, 0
  br i1 %c, label %in, label %out
in:
  %q = getelementptr i64, i64* %p, i64 %i
  %v = load i64, i64* %q
  ret i64 %v
out:
  ret i64 -1
}
"""


def test_an_index_a_range_fact_proves_non_negative_is_bare():
    from repro.vm.jit import compile_function

    engine = _engine("jit", _GUARDED)
    text = compile_function(engine.module.get_function("guarded"),
                            engine).__ir_source__()
    assert "_oob" not in text and "_vq[v" in text, text
    buf = _buffer(4, 5)
    assert engine.run("guarded", (buf, 0), 1) == 5
    assert engine.run("guarded", (buf, 0), -1) == -1
    with pytest.raises(MemoryFault):  # past the end: the view's IndexError
        engine.run("guarded", (buf, 0), 2)
    with pytest.raises(MemoryFault):  # the bind keeps a negative base off
        engine.run("guarded", (buf, -8), 0)


def test_decoded_and_jit_fault_with_one_message():
    # both compiled tiers index the buffer's typed views and build the
    # fault with ``runtime.view_fault``: past the end, below the start
    # and after ``free`` they report the same thing
    messages = {}
    for tier in ("decoded", "jit"):
        engine = _engine(tier)
        buf = _buffer(1, 2, 3)
        said = messages[tier] = []
        for name, *args in (("load_at", (buf, 0), 3),
                            ("load_at", (buf, 16), 1),
                            ("load_below", (buf, 0)),
                            ("load_at", (buf, 8), -2)):
            with pytest.raises(MemoryFault) as info:
                engine.run(name, *args)
            said.append(str(info.value))
        free((buf, 0))
        with pytest.raises(MemoryFault) as info:
            engine.run("load_at", (buf, 0), 1)
        said.append(str(info.value))
    assert messages["decoded"] == messages["jit"]
    assert [text.split(":")[0] for text in messages["jit"]] == [
        "out-of-bounds access"] * 4 + ["use-after-free"]
    assert messages["jit"][2].endswith("negative element index")


def test_a_value_out_of_a_views_range_is_no_memory_fault():
    # a typed view refuses an int out of its format's range with a
    # ``ValueError``, as a released view refuses any access; only the
    # second is a use-after-free
    view = memoryview(bytearray(8)).cast("b")
    with pytest.raises(ValueError) as out_of_range:
        view[0] = 300
    assert view_fault(out_of_range.value) is None
    view.release()
    with pytest.raises(ValueError) as released:
        view[0] = 1
    with pytest.raises(MemoryFault, match="^use-after-free"):
        view_fault(released.value)
