"""One fast iteration of the benchmark harness under the tier-1 suite.

Keeps ``python -m benchmarks`` runnable: a broken import or a workload
whose checksum drifts across tiers fails here, in seconds, instead of at
the next full benchmark run (``make bench-smoke`` runs the same path
from the command line).
"""

import json

from benchmarks.bench_tiers import (
    format_cache,
    format_tiers,
    run_cache,
    run_tiers,
)


def test_tiers_smoke_rows():
    rows = run_tiers(smoke=True)
    assert rows, "smoke run produced no rows"
    for row in rows:
        # every tier agreed on the checksum (asserted inside run_tiers);
        # the timings must at least be sensible
        assert row.interp_s > 0
        assert row.decoded_s > 0
        assert row.jit_s > 0
    # rows serialize for the --json output path
    json.dumps([row._asdict() for row in rows], default=str)
    assert "workload" in format_tiers(rows)


def test_cache_smoke_rows():
    rows = run_cache(smoke=True)
    assert rows
    for row in rows:
        assert row.cold_compile_s > 0
        assert row.warm_materialize_s > 0
        # a warm materialization never recompiles, so it must win
        assert row.warm_speedup > 1.0, row
        assert row.cache_hits > 0
        assert row.cache_misses > 0
    json.dumps([row._asdict() for row in rows], default=str)
    assert "cold" in format_cache(rows)


def test_cli_smoke(tmp_path, capsys):
    from benchmarks.__main__ import main

    out = tmp_path / "bench.json"
    assert main(["tiers", "--smoke", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["env"]["smoke"] is True
    assert data["tiers"], "tiers rows missing from JSON"
    assert data["cache"], "cache rows implied by tiers are missing"


def test_lowering_smoke_rows():
    from benchmarks.bench_lowering import (
        format_codegen,
        format_fusion,
        format_intrusiveness,
        run_codegen,
        run_fusion,
        run_intrusiveness,
    )

    codegen_rows = run_codegen(smoke=True)
    assert codegen_rows
    for row in codegen_rows:
        assert row.ast_compile_s > 0
        assert row.lowered_ops > 0
        # the AST-direct pipeline skips unparse + re-parse, so even a
        # single smoke trial must come in under the text round-trip
        assert row.ast_compile_s < row.text_compile_s, row
    json.dumps([row._asdict() for row in codegen_rows], default=str)
    assert "ast-direct" in format_codegen(codegen_rows)

    fusion_rows = run_fusion(smoke=True)
    assert fusion_rows
    for row in fusion_rows:
        assert row.decoded_s > 0
        # the decoder actually fused something on a branchy workload
        assert row.cmp_br > 0, row
        assert row.op_chain > 0, row
    json.dumps([row._asdict() for row in fusion_rows], default=str)
    assert "cmp+br" in format_fusion(fusion_rows)

    intr_rows = run_intrusiveness()
    for row in intr_rows:
        # a never-firing OSR point adds a handful of ops, not a rewrite
        assert 0 < row.delta_ops <= 64, row
    assert "native ops" in format_intrusiveness(intr_rows)


def test_lowering_cli_smoke(tmp_path):
    from benchmarks.__main__ import main

    out = tmp_path / "bench.json"
    assert main(["lowering", "--smoke", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["lowering"], "codegen rows missing from JSON"
    assert data["fusion"], "fusion rows missing from JSON"
    assert data["intrusiveness"], "intrusiveness rows missing from JSON"


def test_background_smoke_rows():
    from benchmarks.bench_background import format_background, run_background

    rows = run_background(smoke=True)
    assert rows
    for row in rows:
        assert row.sync_first_hot_s > 0
        assert row.bg_first_hot_s > 0
        assert row.sync_steady_s > 0
        assert row.bg_steady_s > 0
        # the background engine actually installed from the queue
        assert row.installed > 0, row
    json.dumps([row._asdict() for row in rows], default=str)
    assert "workload" in format_background(rows)


def test_obs_smoke_rows():
    from benchmarks.bench_obs import format_obs, run_obs, suite_mean_overhead

    rows, latency = run_obs(smoke=True)
    assert rows
    for row in rows:
        assert row.off_s > 0
        assert row.on_s > 0
    # smoke timings are noisy; allow slack over the real 1.05 budget,
    # which `python -m benchmarks obs` (make bench-obs) enforces
    assert suite_mean_overhead(rows) < 1.5, rows
    # the always-on telemetry captured real latency distributions
    dispatch = latency["engine.dispatch"]
    assert dispatch["count"] > 0
    assert dispatch["p50"] <= dispatch["p99"] <= dispatch["max"]
    assert latency["jit.compile"]["count"] > 0
    json.dumps([row._asdict() for row in rows], default=str)
    json.dumps(latency, default=str)
    assert "suite mean" in format_obs(rows, latency)


def test_analysis_smoke_rows():
    from benchmarks.bench_analysis import format_analysis, run_analysis

    rows = run_analysis(smoke=True)
    assert rows
    for row in rows:
        assert row.cached_s > 0
        assert row.bypass_s > 0
        # the acceptance bar: almost everything after the first round of
        # queries is served from cache
        assert row.hit_rate > 0.9, row
        assert row.hits > 0
        assert row.misses > 0
    json.dumps([row._asdict() for row in rows], default=str)
    assert "workload" in format_analysis(rows)
