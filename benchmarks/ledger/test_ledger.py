"""Self-test of the ledger: its arithmetic, its gate and its checks."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import compare, expected, metrics, run, stats
from benchmarks.ledger.harness import Run
from benchmarks.ledger.spans import Tracer, op_closure, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


# -- order statistics ---------------------------------------------------------


def test_median_and_quantiles_interpolate():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([1, 2, 3, 4]) == 2.5
    assert stats.quantile([10, 20, 30, 40, 50], 0.25) == 20
    assert stats.quantile([10, 20], 0.75) == 17.5
    with pytest.raises(ValueError):
        stats.quantile([], 0.5)


def test_geomean_averages_ratios():
    assert stats.geomean([2, 8]) == pytest.approx(4)
    assert stats.geomean([5]) == pytest.approx(5)


def test_tail_needs_ten_samples_beyond():
    assert stats.tail(list(range(19)))[0] == 50.0       # 9.5 beyond p50
    assert stats.tail(list(range(40)))[0] == 75.0       # 10 beyond p75
    percentile, value = stats.tail(list(range(1000)))
    assert percentile == 99.0                            # 10 beyond p99
    assert value == pytest.approx(989.01)


def test_spread_is_the_drivers_interquartile_share():
    values = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    assert stats.spread(values) == pytest.approx(5.5 / 104.5)
    assert stats.spread([100]) == 0.0
    assert stats.spread([90, 100, 110]) == pytest.approx(0.2)


def test_summarize_is_geomean_of_program_medians():
    figures = stats.summarize({"a": [1.0, 2.0, 3.0], "b": [8.0, 8.0, 8.0]})
    assert figures["value"] == pytest.approx(4.0)
    assert figures["samples"] == 6
    assert figures["per_program"] == {"a": 2.0, "b": 8.0}


# -- span arithmetic -----------------------------------------------------------


def _tree():
    tracer = Tracer()
    tracer.op = 0
    root = tracer.open("op", 0.0)
    a = tracer.open("frontend", 1.0)
    tracer.close(a, 4.0)
    b = tracer.open("vm", 4.0)
    inner = tracer.open("vm.codegen", 5.0)
    tracer.close(inner, 7.0)
    tracer.close(b, 9.0)
    tracer.close(root, 10.0)
    return tracer


def test_self_time_is_duration_minus_children():
    tracer = _tree()
    own = self_times(tracer.spans)
    by_name = {s["name"]: own[s["id"]] for s in tracer.spans}
    assert by_name == {"op": 2.0, "frontend": 3.0, "vm": 3.0,
                       "vm.codegen": 2.0}
    assert op_closure(tracer.spans) == {0: pytest.approx(1.0)}


def test_closure_exposes_a_stage_that_escapes_its_op():
    tracer = _tree()
    tracer.op = 0
    tracer.add("child.stage", 9.0, 12.0, parent=0)  # outlasts the op
    assert self_times(tracer.spans)[0] == pytest.approx(-1.0)
    assert op_closure(tracer.spans)[0] == pytest.approx(1.1)


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


# -- compare -----------------------------------------------------------------


def _ledger(path: Path, value: float, failed: int = 0,
            calls: float = 100.0, seconds: int = 10,
            sha: str = "abc") -> None:
    result = {
        "attempted": 100, "failed": failed,
        "metrics": {"first_result_jit_ms": {"value": value},
                    "steady_jit_ms": {"value": value * 7},   # census here
                    "setup_s": {"value": 0.5}},
    }
    traced = {
        "attempted": 10, "failed": 0,
        "metrics": {"frontend.calls": {"value": calls},
                    "mcvm.parse_ms": {"value": 0.0}},  # not its layer
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"seconds": seconds, "env": {"git_sha": sha},
                   "workloads": {"compile_cold": {"untraced": result,
                                                  "traced": traced}}}, fh)


def _sides(tmp_path, a_values, b_values, **b_options):
    for side, values in (("a", a_values), ("b", b_values)):
        for i, value in enumerate(values):
            _ledger(tmp_path / side / f"ledger-seed{i}.json", value,
                    **(b_options if side == "b" else {}))
    return tmp_path / "a", tmp_path / "b"


BOUND = metrics.E2E_BY_NAME["first_result_jit_ms"].bound
BASE = [10.0, 10.1, 10.2, 10.1]


def _scaled(factor):
    return [value * factor for value in BASE]


def test_compare_accepts_runs_within_the_bound(tmp_path):
    lines = []
    a, b = _sides(tmp_path, BASE, _scaled(1 + BOUND / 3))
    assert compare.compare(a, b, out=lines.append) == 0
    row = next(l for l in lines if l.startswith("first_result_jit_ms"))
    assert row.endswith("ok")
    assert f"{1 + BOUND / 3:.3f}x" in row and f"{BOUND:.0%}" in row


def test_compare_rejects_a_regression_beyond_the_bound(tmp_path):
    lines = []
    a, b = _sides(tmp_path, BASE, _scaled(1 + BOUND * 1.2))
    assert compare.compare(a, b, out=lines.append) == 1
    assert any(l.startswith("first_result_jit_ms") and l.endswith("worse")
               for l in lines)


def test_compare_reports_noisy_runs_as_unresolved(tmp_path):
    lines = []
    noisy = [8.0, 10.0, 12.0, 14.0]       # spread far beyond any bound
    a, b = _sides(tmp_path, noisy, [v * 1.5 for v in noisy])
    assert compare.compare(a, b, out=lines.append) == 0
    assert any(l.startswith("first_result_jit_ms")
               and l.endswith("unresolved") for l in lines)


def test_compare_rejects_a_higher_failed_share(tmp_path):
    a, b = _sides(tmp_path, [10.0], [10.0], failed=3)
    assert compare.compare(a, b, out=lambda line: None) == 1


def test_compare_rejects_an_exact_count_that_moved_on_one_commit(tmp_path):
    lines = []
    a, b = _sides(tmp_path, [10.0], [10.0], calls=101.0)
    assert compare.compare(a, b, out=lines.append) == 1
    assert any("frontend.calls" in l and "DIFFERS" in l for l in lines)


def test_compare_reports_a_moved_count_between_commits(tmp_path):
    lines = []
    a, b = _sides(tmp_path, [10.0], [10.0], calls=90.0, sha="def")
    assert compare.compare(a, b, out=lines.append) == 0
    assert any("frontend.calls" in l and "DIFFERS" in l for l in lines)


def test_compare_rejects_a_count_that_does_not_repeat(tmp_path):
    lines = []
    a, b = _sides(tmp_path, [10.0, 10.0], [10.0, 10.0], sha="def")
    _ledger(b / "ledger-seed1.json", 10.0, calls=101.0, sha="def")
    assert compare.compare(a, b, out=lines.append) == 1
    assert any("DOES NOT REPEAT" in l for l in lines)


def test_compare_lists_home_pairings_only(tmp_path):
    lines = []
    a, b = _sides(tmp_path, BASE, _scaled(2.0))
    compare.compare(a, b, out=lines.append)
    assert not any(l.startswith(("steady_jit_ms", "mcvm.parse_ms"))
                   for l in lines)
    assert any(l.startswith("setup_s") for l in lines)


def test_compare_refuses_runs_of_different_length(tmp_path):
    lines = []
    a, b = _sides(tmp_path, BASE, BASE, seconds=5)
    assert compare.compare(a, b, out=lines.append) == 2
    assert "do not compare" in lines[-1]


# -- vocabulary --------------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in contract["workloads"]] == list(
        metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["bound"])
            for m in contract["end_to_end"]] == [
        (m.name, m.unit, m.bound) for m in metrics.END_TO_END]
    assert all(m["better"] == "lower" for m in contract["end_to_end"])
    assert [(m["name"], m["unit"], m["better"])
            for m in contract["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    assert len(contract["end_to_end"]) == 16
    assert all(m["bound"] <= 0.25 for m in contract["end_to_end"])


# -- references --------------------------------------------------------------


def test_references_hold_sequences_for_the_stateful_programs():
    table = expected.Expected.load().table
    for name in expected.STATEFUL:
        sequence = table["shootout"][name]["10000"]
        assert len(sequence) == expected.SEQUENCE_LENGTH
        assert len(set(sequence)) == len(sequence)
    assert table["shootout"]["b-trees"]["7"] == 8798  # Benchmark.expected


def test_mismatch_names_what_is_wrong():
    reference = expected.Expected({"shootout": {"p": {"3": 46, "4": [1, 2]}}})
    assert reference.mismatch("shootout", "p", 3, 46) is None
    assert "got 47" in reference.mismatch("shootout", "p", 3, 47)
    assert reference.mismatch("shootout", "p", 4, 2, index=1) is None
    assert "run #1" in reference.mismatch("shootout", "p", 4, 1, index=1)
    assert "beyond" in reference.mismatch("shootout", "p", 4, 1, index=2)
    assert "no reference" in reference.mismatch("shootout", "q", 3, 46)
    assert reference.mismatch("shootout", "p", 3, 46.0) is not None


def _tampered(tmp_path) -> Path:
    table = json.loads(expected.PATH.read_text())
    table["shootout"]["b-trees"]["3"] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(table))
    return path


def test_a_wrong_reference_is_a_failed_op(tmp_path):
    from benchmarks.ledger import compile_cold

    wrong = expected.Expected.load(_tampered(tmp_path))
    context = Run(1, wrong)
    assert context.attempt(
        lambda r: compile_cold.first_result(r, "b-trees", 3, "jit")) is False
    assert context.attempt(
        lambda r: compile_cold.first_result(r, "mbrot", 6, "jit")) is True
    assert (context.attempted, context.failed) == (2, 1)
    assert "b-trees(3): got 46, reference 47" in context.failures[0]
    assert "b-trees" not in context.samples["first_result_jit_ms"]
    (reference_ms, wall_ms), = context.samples["first_result_jit_ms"]["mbrot"]
    assert reference_ms > 0 and wall_ms > 0


def test_a_wrong_reference_makes_the_run_exit_non_zero(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(expected, "PATH", _tampered(tmp_path))
    status = run.main(["--workload", "compile_cold", "--seed", "1",
                       "--seconds", "0", "--trace", "0", "--smoke"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert line["correct"] is False and line["failed"] >= 2
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


# -- exact counts ------------------------------------------------------------

_COUNT = """
import json, sys
sys.path[:0] = [{root!r}, {src!r}]
from benchmarks.ledger import osr_transition
from benchmarks.ledger.harness import Run
print(json.dumps(osr_transition.counted(Run(1))))
"""


def test_two_counted_passes_give_identical_counts():
    script = _COUNT.format(root=str(ROOT), src=str(ROOT / "src"))
    passes = [json.loads(subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True).stdout) for _ in range(2)]
    assert passes[0] == passes[1]
    assert passes[0]["core.resolved_insert.calls"] > 10_000
    assert passes[0]["core.live_values"] > 0


# -- every workload, once ------------------------------------------------------


@pytest.mark.smoke
@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_smoke_untraced(workload, capsys):
    status = run.main(["--workload", workload, "--seed", "1", "--seconds",
                       "0", "--trace", "0", "--smoke"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0 and line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [m.name for m in metrics.END_TO_END]
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.smoke
def test_smoke_traced(capsys, tmp_path):
    status = run.main(["--workload", "osr_transition", "--seed", "1",
                       "--seconds", "0", "--trace", "1", "--smoke",
                       "--out", str(tmp_path)])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0 and line["correct"]
    assert list(line["metrics"]) == [m.name for m in metrics.PER_LAYER]
    assert line["metrics"]["core.fires"]["value"] == 27
    assert line["metrics"]["trace.closure_error"]["value"] < 0.05
    assert line["metrics"]["mcvm.parse_ms"]["value"] == 0  # not its layer
    spans = json.loads(
        (tmp_path / "trace-osr_transition.seed1.json").read_text())["spans"]
    assert {"core.insert_resolved", "vm.run"} <= {s["name"] for s in spans}
