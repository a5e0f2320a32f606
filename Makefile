PYTHON ?= python

# prepend src without clobbering a caller's PYTHONPATH (Make needs $$ to
# pass the shell's ${PYTHONPATH:+:$PYTHONPATH} through literally)
PP = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}

.PHONY: test stress bench bench-all bench-smoke bench-tiers bench-background bench-spec bench-analysis bench-lowering bench-obs bench-serve bench-scalarize ledger ledger-smoke trace-smoke serve-smoke

test:
	$(PP) $(PYTHON) -m pytest -x -q

# the threaded background-compilation stress tests, with fault handler
# tracebacks should a thread wedge
stress:
	$(PP) PYTHONFAULTHANDLER=1 $(PYTHON) -m pytest -x -q \
		tests/vm/test_background.py
	$(PP) PYTHONFAULTHANDLER=1 $(PYTHON) -m pytest -x -q \
		tests/properties/test_tier_differential.py -k "Threaded"

# single-trial, tiny workloads — seconds, suitable for CI
bench-smoke:
	$(PP) $(PYTHON) -m benchmarks tiers scalarize --smoke

# the tier comparison that backs docs/execution-tiers.md
bench-tiers:
	$(PP) $(PYTHON) -m benchmarks tiers --json BENCH_tiers.json

# background vs synchronous tier-up: first-hot-call latency and
# steady-state throughput (backs docs/background-compilation.md)
bench-background:
	$(PP) $(PYTHON) -m benchmarks background --json BENCH_background.json

# speculation & deopt: speedup on monomorphic loops, deopt vs invalidation
bench-spec:
	$(PP) $(PYTHON) -m benchmarks spec --json BENCH_spec.json

# analysis caching: AnalysisManager hit rate and speedup vs recompute
bench-analysis:
	$(PP) $(PYTHON) -m benchmarks analysis --json BENCH_analysis.json

# lowering pipeline: AST-direct codegen latency, decoded-tier
# superinstruction fusion, OSR intrusiveness (Figure 8 analogue)
bench-lowering:
	$(PP) $(PYTHON) -m benchmarks lowering --json BENCH_lowering.json

# observability: always-on telemetry overhead vs the 5% budget, plus
# dispatch/compile latency percentiles (backs docs/observability.md)
bench-obs:
	$(PP) $(PYTHON) -m benchmarks obs --json BENCH_obs.json

# serving: persistent-cache warm starts (>= 5x floor) and the
# multi-tenant VM server's p50/p99 (backs docs/serving.md)
bench-serve:
	$(PP) $(PYTHON) -m benchmarks serve --json BENCH_serve.json

# scalarization: OSR live-slot reduction, decoded frame width, and the
# deopt-recipe cost delta (backs docs/scalarization.md)
bench-scalarize:
	$(PP) $(PYTHON) -m benchmarks scalarize --json BENCH_scalarize.json

# the perf ledger, the repository's benchmark (BENCHMARK.json): every
# workload untraced then traced, result file under benchmarks/ledger/out/
# (benchmarks/ledger/README.md)
ledger:
	$(PP) $(PYTHON) -m benchmarks.ledger run

# the ledger's self-test plus every workload once (~20 s)
ledger-smoke:
	$(PP) $(PYTHON) -m pytest benchmarks/ledger -q --smoke

# the full evaluation: tiers + the paper's Q1-Q4 drivers (minutes)
bench:
	$(PP) $(PYTHON) -m benchmarks tiers q1 q2 q3 q4 --json BENCH_tiers.json

# every benchmark group, one JSON per group (long)
bench-all: bench-tiers bench-background bench-spec bench-analysis \
		bench-lowering bench-obs bench-serve bench-scalarize

# traced shootout run: validates the event stream and the Chrome export,
# writes the trace for loading into Perfetto / chrome://tracing
trace-smoke:
	$(PP) $(PYTHON) -m repro.obs smoke --out trace-smoke.json

# warm-start round trip against a throwaway cache: a cold run populates
# it, a second process must be served entirely from disk
serve-smoke:
	rm -rf .repro-cache-smoke
	$(PP) $(PYTHON) -m repro.serve smoke --cache .repro-cache-smoke
	$(PP) $(PYTHON) -m repro.serve smoke --cache .repro-cache-smoke --expect-hits
	rm -rf .repro-cache-smoke
