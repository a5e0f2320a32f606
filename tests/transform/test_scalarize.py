"""SROA (scalarize) tests: splitting, bailouts, semantics, honesty.

The frontend lowers a local array declaration to an aggregate alloca
accessed through two-step GEP chains (array decay then element step), so
the mini-C programs here exercise exactly the shapes the pass meets in
production; the textual-IR programs pin down the corner cases (nested
aggregates, type punning, non-entry allocas) directly.
"""

import pytest

from repro.analysis import ANALYSES, AnalysisManager
from repro.frontend import compile_c
from repro.ir import parse_function, parse_module, verify_function
from repro.ir.instructions import AllocaInst, GEPInst, LoadInst, StoreInst
from repro.obs import events as EV
from repro.obs import local_telemetry
from repro.transform.dce import eliminate_dead_stores
from repro.transform.passmanager import (
    PIPELINES,
    PassManager,
    dce_pass,
    scalarize_pass,
)
from repro.transform.scalarize import scalarize_aggregates
from repro.vm import ExecutionEngine
from repro.vm.interpreter import Interpreter


def allocas_of(func):
    return [i for i in func.instructions() if isinstance(i, AllocaInst)]


def geps_of(func):
    return [i for i in func.instructions() if isinstance(i, GEPInst)]


SCRATCH_C = """
long spin(long n) {
    long acc[4];
    long total = 0;
    for (long i = 0; i < n; i++) {
        acc[0] = i;
        acc[1] = i * 2;
        acc[2] = acc[0] + acc[1];
        acc[3] = acc[2] - i;
        total = total + acc[3];
    }
    return total;
}
"""


class TestSplitting:
    def test_scratch_array_fully_dissolves(self):
        module = compile_c(SCRATCH_C)
        func = module.get_function("spin")
        ref = Interpreter(module).run_function(func, [10])
        PassManager.pipeline("scalarized").run(func)
        # the aggregate, its gep tree, and all memory traffic are gone
        assert allocas_of(func) == []
        assert geps_of(func) == []
        assert not any(isinstance(i, (LoadInst, StoreInst))
                       for i in func.instructions())
        assert Interpreter(module).run_function(func, [10]) == ref

    def test_split_emits_event(self):
        module = compile_c(SCRATCH_C)
        func = module.get_function("spin")
        PassManager.pipeline("unoptimized").run(func)
        telemetry = local_telemetry()
        split = scalarize_aggregates(func, am=AnalysisManager(),
                                     telemetry=telemetry)
        assert split == 1
        events = [e for e in telemetry.events
                  if e["name"] == EV.SCALARIZE_SPLIT]
        assert len(events) == 1
        assert events[0]["args"]["pieces"] == 4
        assert events[0]["args"]["bytes"] == 32

    def test_nested_aggregate_gep_chain(self):
        # a struct holding an array: two-level constant GEP paths must
        # resolve to distinct byte offsets and split cleanly
        src = """
define i64 @f(i64 %n) {
entry:
  %s = alloca { i64, [2 x i64] }
  %f0 = getelementptr { i64, [2 x i64] }, { i64, [2 x i64] }* %s, i64 0, i32 0
  store i64 %n, i64* %f0
  %f1 = getelementptr { i64, [2 x i64] }, { i64, [2 x i64] }* %s, i64 0, i32 1, i64 0
  store i64 3, i64* %f1
  %f2 = getelementptr { i64, [2 x i64] }, { i64, [2 x i64] }* %s, i64 0, i32 1, i64 1
  store i64 4, i64* %f2
  %a = load i64, i64* %f0
  %b = load i64, i64* %f1
  %c = load i64, i64* %f2
  %ab = add i64 %a, %b
  %r = add i64 %ab, %c
  ret i64 %r
}
"""
        module = parse_module(src)
        func = module.get_function("f")
        ref = Interpreter(module).run_function(func, [35])
        assert scalarize_aggregates(func, am=AnalysisManager()) == 1
        verify_function(func)
        assert allocas_of(func) == []
        assert Interpreter(module).run_function(func, [35]) == ref

    def test_load_before_store_keeps_zero_init(self):
        # alloca memory is zero-initialized; a split cell read before any
        # write must still produce 0 (mem2reg's undef decodes to 0)
        src = """
define i64 @f(i64 %n) {
entry:
  %arr = alloca [2 x i64]
  %p0 = getelementptr [2 x i64], [2 x i64]* %arr, i64 0, i64 0
  %p1 = getelementptr [2 x i64], [2 x i64]* %arr, i64 0, i64 1
  %early = load i64, i64* %p0
  store i64 %n, i64* %p1
  %late = load i64, i64* %p1
  %r = add i64 %early, %late
  ret i64 %r
}
"""
        module = parse_module(src)
        func = module.get_function("f")
        ref = Interpreter(module).run_function(func, [9])
        assert ref == 9
        assert scalarize_aggregates(func, am=AnalysisManager()) == 1
        assert Interpreter(module).run_function(func, [9]) == 9

    def test_all_tiers_agree_after_scalarize(self):
        ref_module = compile_c(SCRATCH_C)
        ref_func = ref_module.get_function("spin")
        ref = Interpreter(ref_module).run_function(ref_func, [25])
        for tier in ("interp", "decoded", "jit"):
            module = compile_c(SCRATCH_C)
            PassManager.pipeline("scalarized").run(
                module.get_function("spin"))
            engine = ExecutionEngine(module, tier=tier)
            assert engine.run("spin", 25) == ref, tier


class TestBailouts:
    def test_dynamic_index_bails(self):
        src = """
define i64 @f(i64 %i) {
entry:
  %arr = alloca [4 x i64]
  %p = getelementptr [4 x i64], [4 x i64]* %arr, i64 0, i64 %i
  store i64 1, i64* %p
  %v = load i64, i64* %p
  ret i64 %v
}
"""
        func = parse_function(src)
        assert scalarize_aggregates(func, am=AnalysisManager()) == 0
        assert len(allocas_of(func)) == 1

    def test_escaping_aggregate_bails(self):
        src = """
declare void @sink(i64*)
define i64 @f() {
entry:
  %arr = alloca [2 x i64]
  %p = getelementptr [2 x i64], [2 x i64]* %arr, i64 0, i64 0
  call void @sink(i64* %p)
  %v = load i64, i64* %p
  ret i64 %v
}
"""
        module = parse_module(src)
        func = module.get_function("f")
        assert scalarize_aggregates(func, am=AnalysisManager()) == 0

    def test_non_entry_alloca_bails(self):
        # a re-executed alloca re-zeroes its memory each time around the
        # loop; splitting it to entry scalars would leak state across
        # iterations
        src = """
define i64 @f(i64 %n) {
entry:
  br label %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %out
body:
  %arr = alloca [2 x i64]
  %p = getelementptr [2 x i64], [2 x i64]* %arr, i64 0, i64 0
  store i64 %i, i64* %p
  %i2 = add i64 %i, 1
  br label %head
out:
  ret i64 %n
}
"""
        func = parse_function(src)
        assert scalarize_aggregates(func, am=AnalysisManager()) == 0

    def test_type_punning_bails(self):
        src = """
define double @f() {
entry:
  %arr = alloca [2 x i64]
  %p = getelementptr [2 x i64], [2 x i64]* %arr, i64 0, i64 0
  store i64 1, i64* %p
  %c = bitcast i64* %p to double*
  %v = load double, double* %c
  ret double %v
}
"""
        func = parse_function(src)
        assert scalarize_aggregates(func, am=AnalysisManager()) == 0


WRITE_ONLY = """
define i64 @f(i64 %n) {
entry:
  %log = alloca [2 x i64]
  %p0 = getelementptr [2 x i64], [2 x i64]* %log, i64 0, i64 0
  %p1 = getelementptr [2 x i64], [2 x i64]* %log, i64 0, i64 1
  store i64 %n, i64* %p0
  store i64 7, i64* %p1
  %r = add i64 %n, 1
  ret i64 %r
}
"""


class TestEscapeDrivenDCE:
    def test_write_only_alloca_web_erased(self):
        module = parse_module(WRITE_ONLY)
        func = module.get_function("f")
        ref = Interpreter(module).run_function(func, [5])
        removed = eliminate_dead_stores(func, am=AnalysisManager())
        # 2 stores + 2 geps + the alloca
        assert removed == 5
        verify_function(func)
        assert allocas_of(func) == []
        assert not any(isinstance(i, StoreInst)
                       for i in func.instructions())
        assert Interpreter(module).run_function(func, [5]) == ref

    def test_loaded_alloca_untouched(self):
        func = parse_function("""
define i64 @f(i64 %n) {
entry:
  %x = alloca i64
  store i64 %n, i64* %x
  %v = load i64, i64* %x
  ret i64 %v
}
""")
        assert eliminate_dead_stores(func, am=AnalysisManager()) == 0

    def test_escaping_alloca_untouched(self):
        module = parse_module("""
declare void @sink(i64*)
define void @f(i64 %n) {
entry:
  %x = alloca i64
  store i64 %n, i64* %x
  call void @sink(i64* %x)
  ret void
}
""")
        func = module.get_function("f")
        assert eliminate_dead_stores(func, am=AnalysisManager()) == 0


class TestPreservationHonestyOnAggregates:
    """The hypothesis preservation property generates scalar-only
    programs, where scalarize/dce are no-ops returning ``all()``; the
    aggregate programs here make the interesting claims fire."""

    def _check(self, pass_fn, pass_name, func):
        am = AnalysisManager()
        cached_before = {name: am.get(name, func) for name in ANALYSES}
        preserved = pass_fn(func, am)
        assert not preserved.preserves_all, (
            f"{pass_name} should have changed this aggregate program"
        )
        am.invalidate(func, preserved)
        for name, analysis in ANALYSES.items():
            if not preserved.preserves(name):
                continue
            cached = am.cached(name, func)
            assert cached is cached_before[name], (pass_name, name)
            fresh = analysis.compute(func)
            assert analysis.same_result(cached, fresh), (pass_name, name)

    def test_scalarize_claim_on_scratch_loop(self):
        module = compile_c(SCRATCH_C)
        func = module.get_function("spin")
        PassManager.pipeline("unoptimized").run(func)
        self._check(scalarize_pass, "scalarize", func)

    def test_dce_claim_on_write_only_aggregate(self):
        func = parse_module(WRITE_ONLY).get_function("f")
        self._check(dce_pass, "dce", func)


class TestPipelines:
    def test_scalarized_pipeline_registered(self):
        assert PIPELINES["scalarized"] == ["mem2reg", "scalarize"]
        assert "scalarize" in PIPELINES["optimized"]

    def test_code_version_bumps_on_split(self):
        module = compile_c(SCRATCH_C)
        func = module.get_function("spin")
        PassManager.pipeline("unoptimized").run(func)
        before = func.code_version
        PassManager(["scalarize"]).run(func)
        assert func.code_version > before

    def test_no_change_no_version_bump(self):
        func = parse_function("""
define i64 @f(i64 %n) {
entry:
  %r = add i64 %n, 1
  ret i64 %r
}
""")
        before = func.code_version
        PassManager(["scalarize"]).run(func)
        assert func.code_version == before
