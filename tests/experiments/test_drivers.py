"""Experiment-driver tests (smoke runs with tiny workloads + unit checks
on the site selection and statistics helpers)."""

import pytest

from repro.experiments import (
    format_ablation,
    format_fig8,
    format_q1,
    format_q2,
    format_q3,
    format_q4,
    run_ablation,
    run_fig8,
    run_q1,
    run_q2,
    run_q3,
    run_q4,
)
from repro.experiments.stats import TimingResult, summarize, time_run


class TestStats:
    def test_summarize_single(self):
        result = summarize([0.5])
        assert result.mean == 0.5
        assert result.ci95 == 0.0

    def test_summarize_spread(self):
        result = summarize([1.0, 2.0, 3.0])
        assert result.mean == 2.0
        assert result.ci95 > 0
        assert result.best == 1.0

    def test_time_run_counts(self):
        calls = []
        time_run(lambda: calls.append(1), trials=3, warmup=2)
        assert len(calls) == 5

    def test_str_format(self):
        result = summarize([0.001, 0.002])
        assert "ms" in str(result)


class TestQ1:
    def test_smoke(self):
        rows = run_q1(level="unoptimized", trials=1,
                      names=["fannkuch"], include_large=False)
        assert len(rows) == 1
        row = rows[0]
        assert row.workload == "fannkuch"
        assert row.native.mean > 0
        assert row.osr.mean > 0
        assert 0.3 < row.slowdown < 3.0
        assert "fannkuch" in format_q1(rows)

    def test_large_workloads_included(self):
        rows = run_q1(level="unoptimized", trials=1, names=["mbrot"],
                      include_large=True)
        assert [r.workload for r in rows] == ["mbrot", "mbrot-large"]


class TestQ2:
    def test_smoke(self):
        rows = run_q2(level="unoptimized", trials=1, names=["mbrot"])
        row = rows[0]
        assert row.fired_osrs == 40 * 40  # one per pixel
        assert row.live_values == 2       # (cr, ci)
        assert "mbrot" in format_q2(rows)


class TestQ3:
    def test_smoke(self):
        rows = run_q3(level="optimized", names=["fannkuch"])
        row = rows[0]
        assert row.ir_size > 0
        assert row.cont_size > 0
        assert row.open_stub > 0
        assert row.resolved_total > 0
        assert row.per_instruction > 0
        assert "fannkuch" in format_q3(rows)

    def test_all_benchmarks_instrumentable(self):
        rows = run_q3(level="optimized")
        assert len(rows) == 8


class TestQ4:
    def test_smoke(self):
        # tiny: patch the step count down for a fast smoke run
        from repro.mcvm import Q4_BENCHMARKS

        small = Q4_BENCHMARKS["odeEuler"]._replace(steps=400)
        import repro.experiments.q4 as q4mod

        original = dict(q4mod.Q4_BENCHMARKS)
        q4mod.Q4_BENCHMARKS = {"odeEuler": small}
        try:
            rows = run_q4(trials=1, names=["odeEuler"])
        finally:
            q4mod.Q4_BENCHMARKS = original
        row = rows[0]
        speedups = row.speedups()
        assert speedups["optimized (cached)"] > 1.5
        assert speedups["direct (by hand)"] > 1.5
        assert "odeEuler" in format_q4(rows)


class TestFig8:
    def test_never_firing_point_adds_a_handful_of_operations(self):
        rows = run_fig8()
        assert [row.workload for row in rows] == ["sum-loop"]
        for row in rows:
            assert row.native_ops > 0
            # counter update + threshold check + the out-of-line firing
            # block, not a rewrite of the function
            assert 0 < row.delta_ops <= 64, row
        assert "native ops" in format_fig8(rows)


class TestAblation:
    def test_every_design_returns_the_native_checksum(self):
        n = 3000  # past the firing threshold, so both designs transfer
        rows = {row.configuration: row for row in run_ablation(n=n, trials=1)}
        native = rows["native"].checksum
        for label in ("osrkit never", "mcosr never",
                      "osrkit firing", "mcosr firing"):
            assert rows[label].checksum == native, label
            assert rows[label].seconds > 0
        # the rationale for the stub: inline generation injects more code
        assert rows["open, inline"].ir_size > rows["open, stub"].ir_size
        # a point is counter phi + decrement + compare + branch + the
        # firing block's call and return, not a rewrite of the function
        assert 0 < rows["open, stub"].ir_size - rows["native"].ir_size <= 12
        assert "mcosr firing" in format_ablation(list(rows.values()))


class TestCLI:
    def test_main_q3(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["q3"]) == 0
        out = capsys.readouterr().out
        assert "Q3 / Table 3" in out
        assert "sp-norm" in out
        assert "live slots per OSR site" in out

    def test_main_fig8_and_ablation(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig8", "ablation", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "sum-loop" in out
        assert "osrkit firing" in out and "open, inline" in out
        assert "Q1" not in out

    def test_main_without_targets_runs_every_target(self, capsys,
                                                     monkeypatch):
        from repro.experiments import __main__ as cli

        cheap = {name: (f"banner {name}", lambda trials, name=name:
                        f"table {name} x{trials}")
                 for name in ("a", "b", "c")}
        monkeypatch.setattr(cli, "TARGETS", cheap)
        assert cli.main([]) == 0
        out = capsys.readouterr().out
        for name in cheap:
            assert f"banner {name}" in out and f"table {name} x3" in out

    def test_main_runs_only_the_named_targets_in_table_order(
            self, capsys, monkeypatch):
        from repro.experiments import __main__ as cli

        cheap = {name: (f"banner {name}", lambda trials, name=name:
                        f"table {name} x{trials}")
                 for name in ("a", "b", "c")}
        monkeypatch.setattr(cli, "TARGETS", cheap)
        assert cli.main(["c", "a", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "banner b" not in out
        assert out.index("banner a") < out.index("banner c")
        assert "table c x1" in out

    def test_main_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["q9"])


def test_tinyvm_example_file_loads():
    from pathlib import Path

    from repro.tinyvm import TinyVM

    example = (Path(__file__).resolve().parents[2]
               / "examples" / "hot_loop.ll")
    vm = TinyVM()
    vm.execute(f"load_ir {example}")
    assert vm.execute("hot_loop(100)") == str(
        sum(i * i for i in range(100))
    )


def test_tinyvm_docstring_session_runs_as_written(monkeypatch):
    import re
    from pathlib import Path

    import repro.tinyvm
    from repro.tinyvm import TinyVM

    # the session names its example relative to the repository root
    monkeypatch.chdir(Path(__file__).resolve().parents[2])
    session = re.findall(r'vm\.execute\("([^"]+)"\)',
                         repro.tinyvm.__doc__)
    assert session[0] == "load_ir examples/hot_loop.ll"
    vm = TinyVM()
    results = [vm.execute(command) for command in session]
    n = int(re.fullmatch(r"hot_loop\((\d+)\)", session[-1]).group(1))
    assert results[-1] == str(sum(i * i for i in range(n)))


def test_tinyvm_show_jit_prints_the_emitted_python():
    from pathlib import Path

    from repro.tinyvm import TinyVM, TinyVMError

    example = (Path(__file__).resolve().parents[2]
               / "examples" / "hot_loop.ll")
    vm = TinyVM()
    vm.execute(f"load_ir {example}")
    text = vm.execute("show_jit hot_loop")
    assert text.startswith("def _jit_hot_loop(")
    assert "while True:" in text
    # inspecting is not running: the result and the tier-up are untouched
    assert vm.execute("hot_loop(100)") == str(
        sum(i * i for i in range(100))
    )
    assert "show_jit <fn>" in vm.execute("help")
    with pytest.raises(TinyVMError, match="usage"):
        vm.execute("show_jit")
    with pytest.raises(TinyVMError, match="no function"):
        vm.execute("show_jit ghost")


def test_tinyvm_show_jit_names_why_a_function_runs_on_the_tree_walker(
        tmp_path):
    from repro.tinyvm import TinyVM

    from ..vm.test_jit_codegen import deep_loop_nest

    path = tmp_path / "deep.ll"
    path.write_text(deep_loop_nest(17))
    vm = TinyVM()
    vm.execute(f"load_ir {path}")
    assert vm.execute("show_jit f") == (
        "runs on the tree-walker: loops nested too deep")
    assert vm.execute("f(1)") == "7"
