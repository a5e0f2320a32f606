"""mini-McVM compiler + feval-optimization tests (paper Section 4)."""

import pytest

from repro.ir import print_function, verify_function
from repro.mcvm import (
    BOXED,
    DOUBLE,
    HANDLE,
    McVM,
    Q4_BENCHMARKS,
    find_feval_opportunities,
    parse_matlab,
    q4_order,
    specialize_feval_to_direct,
)
from repro.mcvm.mcast import CallExpr, FevalExpr, walk_expressions, walk_statements

SIMPLE = """
function y = sq(x)
  y = x * x;
end

function w = accumulate(g, n)
  w = 0.0;
  i = 0.0;
  while i < n
    w = w + feval(g, i);
    i = i + 1.0;
  end
end

function r = main(n)
  r = accumulate(@sq, n);
end
"""


class TestCompilation:
    def test_version_per_signature(self):
        vm = McVM(SIMPLE)
        v1 = vm.compile_version("sq", (DOUBLE,))
        v2 = vm.compile_version("sq", (BOXED,))
        v3 = vm.compile_version("sq", (DOUBLE,))
        assert v1 is v3
        assert v1 is not v2
        assert v1.ir_function.name != v2.ir_function.name

    def test_double_version_uses_float_ops(self):
        vm = McVM(SIMPLE)
        version = vm.compile_version("sq", (DOUBLE,))
        text = print_function(version.ir_function)
        assert "fmul" in text
        assert "mc_mul" not in text

    def test_boxed_version_uses_generic_ops(self):
        vm = McVM(SIMPLE)
        version = vm.compile_version("sq", (BOXED,))
        text = print_function(version.ir_function)
        assert "mc_mul" in text

    def test_compiled_functions_verify(self):
        vm = McVM(SIMPLE)
        for args in ((DOUBLE,), (BOXED,)):
            verify_function(vm.compile_version("sq", args).ir_function)

    def test_run_executes(self):
        vm = McVM(SIMPLE)
        assert vm.run("main", 10) == sum(i * i for i in range(10))

    def test_run_against_interpreter(self):
        vm = McVM(SIMPLE)
        compiled = vm.run("main", 20)
        interpreted = McVM(SIMPLE).run_interpreted("main", 20)
        assert compiled == interpreted

    def test_loop_headers_recorded(self):
        vm = McVM(SIMPLE)
        version = vm.compile_version("accumulate", (HANDLE, DOUBLE))
        assert len(version.loop_headers) == 1

    def test_var_slots_recorded(self):
        vm = McVM(SIMPLE)
        version = vm.compile_version("accumulate", (HANDLE, DOUBLE))
        assert set(version.var_slots) == {"g", "n", "w", "i"}

    def test_dispatch_counts(self):
        vm = McVM(SIMPLE)
        vm.run("main", 10)
        assert vm.stats["feval_dispatches"] == 10


class TestAnalysisPass:
    def test_finds_loop_feval(self):
        funcs = {f.name: f for f in parse_matlab(SIMPLE)}
        opportunities = find_feval_opportunities(funcs["accumulate"])
        assert len(opportunities) == 1
        assert opportunities[0].handle_param == "g"
        assert opportunities[0].feval_count == 1

    def test_reassigned_handle_not_eligible(self):
        funcs = parse_matlab("""
function w = f(g, n)
  w = 0.0;
  g = @something;
  i = 0.0;
  while i < n
    w = w + feval(g, i);
    i = i + 1.0;
  end
end

function y = something(x)
  y = x;
end
""")
        assert find_feval_opportunities(funcs[0]) == []

    def test_non_parameter_target_not_eligible(self):
        funcs = parse_matlab("""
function w = f(n)
  h = @helper;
  w = 0.0;
  i = 0.0;
  while i < n
    w = w + feval(h, i);
    i = i + 1.0;
  end
end

function y = helper(x)
  y = x;
end
""")
        assert find_feval_opportunities(funcs[0]) == []

    def test_feval_outside_loop_not_marked(self):
        funcs = parse_matlab("""
function w = f(g)
  w = feval(g, 1.0);
end
""")
        assert find_feval_opportunities(funcs[0]) == []

    def test_multiple_fevals_counted(self):
        benchmark = Q4_BENCHMARKS["odeRK4"]
        funcs = {f.name: f for f in parse_matlab(benchmark.source)}
        opportunities = find_feval_opportunities(funcs["odeRK4"])
        assert opportunities[0].feval_count == 4


class TestIIRSpecialization:
    def test_feval_replaced_by_direct_call(self):
        funcs = {f.name: f for f in parse_matlab(SIMPLE)}
        specialized = specialize_feval_to_direct(
            funcs["accumulate"], "g", "sq"
        )
        fevals = [e for s in walk_statements(specialized.body)
                  for e in walk_expressions(s)
                  if isinstance(e, FevalExpr)]
        assert fevals == []
        calls = [e for s in walk_statements(specialized.body)
                 for e in walk_expressions(s)
                 if isinstance(e, CallExpr) and e.name == "sq"]
        assert len(calls) == 1

    def test_original_iir_untouched(self):
        funcs = {f.name: f for f in parse_matlab(SIMPLE)}
        specialize_feval_to_direct(funcs["accumulate"], "g", "sq")
        fevals = [e for s in walk_statements(funcs["accumulate"].body)
                  for e in walk_expressions(s)
                  if isinstance(e, FevalExpr)]
        assert len(fevals) == 1

    def test_other_handles_left_alone(self):
        funcs = parse_matlab("""
function w = f(g, h, n)
  w = 0.0;
  i = 0.0;
  while i < n
    w = w + feval(g, i) + feval(h, i);
    i = i + 1.0;
  end
end
""")
        specialized = specialize_feval_to_direct(funcs[0], "g", "sq")
        fevals = [e for s in walk_statements(specialized.body)
                  for e in walk_expressions(s)
                  if isinstance(e, FevalExpr)]
        assert len(fevals) == 1  # only h's feval remains


class TestOSRFevalEndToEnd:
    def test_osr_mode_matches_base(self):
        base = McVM(SIMPLE).run("main", 200)
        osr = McVM(SIMPLE, enable_osr=True).run("main", 200)
        assert base == osr

    def test_osr_fires_and_caches(self):
        vm = McVM(SIMPLE, enable_osr=True)
        vm.run("main", 200)
        assert vm.stats["osr_points"] == 1
        assert vm.stats["feval_optimizations"] == 1
        assert len(vm.engine.continuations()) == 1
        vm.run("main", 200)
        assert vm.stats["feval_optimizations"] == 1  # cache hit
        assert vm.stats["feval_cache_hits"] >= 1

    def test_dispatches_stop_after_osr(self):
        vm = McVM(SIMPLE, enable_osr=True, osr_threshold=5)
        vm.run("main", 200)
        # only the pre-OSR prefix went through the dispatcher
        assert vm.stats["feval_dispatches"] <= 6

    def test_continuation_is_specialized(self):
        vm = McVM(SIMPLE, enable_osr=True)
        vm.run("main", 200)
        cont = next(iter(vm.engine.continuations().values()))
        text = print_function(cont.function)
        assert "mc_feval" not in text       # feval gone
        assert "sq__d" in text              # direct specialized call
        assert "castUNKtoMF64" in text      # unboxing compensation

    def test_below_threshold_no_osr(self):
        vm = McVM(SIMPLE, enable_osr=True, osr_threshold=50)
        assert vm.run("main", 10) == sum(i * i for i in range(10))
        assert vm.stats["feval_optimizations"] == 0

    @pytest.mark.parametrize("name", [b.name for b in q4_order()])
    def test_q4_benchmarks_all_modes_agree(self, name):
        benchmark = Q4_BENCHMARKS[name]
        steps = 300
        ref = McVM(benchmark.source).run_interpreted(
            benchmark.entry, steps
        )
        for source, osr in ((benchmark.source, False),
                            (benchmark.source, True),
                            (benchmark.direct_source, False)):
            out = McVM(source, enable_osr=osr).run(benchmark.entry, steps)
            assert abs(out - ref) < 1e-9

    def test_clear_feval_caches(self):
        vm = McVM(SIMPLE, enable_osr=True)
        vm.run("main", 200)
        main = vm.compile_version("main", (DOUBLE,)).ir_function
        compiled = vm.engine.get_compiled(main)
        vm.clear_feval_caches()
        assert vm.engine.continuations() == {}
        # the entry function stays compiled; only feval artifacts go
        assert vm.engine.get_compiled(main) is compiled
        vm.run("main", 200)
        assert vm.stats["feval_optimizations"] == 2  # regenerated
        assert len(vm.engine.continuations()) == 1
