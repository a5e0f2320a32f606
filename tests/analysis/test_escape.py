"""Escape analysis tests: the lattice, the walk, manager integration."""

from repro.analysis import AnalysisManager, EscapeInfo
from repro.ir import parse_function
from repro.ir.instructions import AllocaInst


def alloca_named(func, name):
    for inst in func.instructions():
        if isinstance(inst, AllocaInst) and inst.name == name:
            return inst
    raise AssertionError(f"no alloca %{name}")


def info_for(src):
    func = parse_function(src)
    return func, AnalysisManager().escape_info(func)


PRIVATE = """
define i64 @f(i64 %n) {
entry:
  %arr = alloca [4 x i64]
  %d = getelementptr [4 x i64], [4 x i64]* %arr, i64 0, i64 0
  store i64 %n, i64* %d
  %p1 = getelementptr i64, i64* %d, i64 1
  store i64 7, i64* %p1
  %v = load i64, i64* %d
  ret i64 %v
}
"""


class TestLattice:
    def test_private_aggregate(self):
        func, info = info_for(PRIVATE)
        arr = alloca_named(func, "arr")
        assert not info.escapes(arr)
        assert info.is_loaded(arr)
        summary = info.summary(arr)
        assert summary.stored and summary.loaded and not summary.escapes
        assert summary.reason is None
        assert info.non_escaping == [arr]

    def test_store_of_address_escapes(self):
        func, info = info_for("""
define void @f(i64** %slot) {
entry:
  %x = alloca i64
  store i64* %x, i64** %slot
  ret void
}
""")
        x = alloca_named(func, "x")
        assert info.escapes(x)
        assert "stored as a value" in info.summary(x).reason

    def test_store_through_is_not_escape(self):
        func, info = info_for("""
define void @f(i64 %n) {
entry:
  %x = alloca i64
  store i64 %n, i64* %x
  ret void
}
""")
        x = alloca_named(func, "x")
        assert not info.escapes(x)
        assert not info.is_loaded(x)
        assert info.summary(x).stored

    def test_call_argument_escapes(self):
        func, info = info_for("""
declare void @sink(i64*)
define void @f() {
entry:
  %x = alloca i64
  call void @sink(i64* %x)
  ret void
}
""")
        x = alloca_named(func, "x")
        assert info.escapes(x)
        assert "callinst" in info.summary(x).reason

    def test_return_escapes(self):
        func, info = info_for("""
define i64* @f() {
entry:
  %x = alloca i64
  ret i64* %x
}
""")
        assert info.escapes(alloca_named(func, "x"))

    def test_derived_gep_escape_propagates_to_root(self):
        func, info = info_for("""
declare void @sink(i64*)
define void @f() {
entry:
  %arr = alloca [4 x i64]
  %d = getelementptr [4 x i64], [4 x i64]* %arr, i64 0, i64 2
  call void @sink(i64* %d)
  ret void
}
""")
        assert info.escapes(alloca_named(func, "arr"))

    def test_bitcast_is_followed_not_escaped(self):
        func, info = info_for("""
define i64 @f(i64 %n) {
entry:
  %x = alloca i64
  %c = bitcast i64* %x to i64*
  store i64 %n, i64* %c
  %v = load i64, i64* %c
  ret i64 %v
}
""")
        x = alloca_named(func, "x")
        assert not info.escapes(x)
        assert info.is_loaded(x)

    def test_ptrtoint_escapes(self):
        func, info = info_for("""
define i64 @f() {
entry:
  %x = alloca i64
  %addr = ptrtoint i64* %x to i64
  ret i64 %addr
}
""")
        x = alloca_named(func, "x")
        assert info.escapes(x)
        assert "ptrtoint" in info.summary(x).reason

    def test_phi_merge_escapes(self):
        func, info = info_for("""
define i64 @f(i1 %c) {
entry:
  %a = alloca i64
  %b = alloca i64
  br i1 %c, label %l, label %r
l:
  br label %join
r:
  br label %join
join:
  %p = phi i64* [ %a, %l ], [ %b, %r ]
  %v = load i64, i64* %p
  ret i64 %v
}
""")
        assert info.escapes(alloca_named(func, "a"))
        assert info.escapes(alloca_named(func, "b"))

    def test_unknown_alloca_is_conservative(self):
        func, info = info_for(PRIVATE)
        other = parse_function(PRIVATE)
        foreign = alloca_named(other, "arr")
        assert info.escapes(foreign)
        assert info.is_loaded(foreign)
        assert info.summary(foreign) is None


class TestManagerIntegration:
    def test_cached_per_version_and_invalidated(self):
        func = parse_function(PRIVATE)
        am = AnalysisManager()
        first = am.escape_info(func)
        assert am.escape_info(func) is first  # cache hit
        am.invalidate(func)
        second = am.escape_info(func)
        assert second is not first
