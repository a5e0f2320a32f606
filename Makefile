PYTHON ?= python

# prepend src without clobbering a caller's PYTHONPATH (Make needs $$ to
# pass the shell's ${PYTHONPATH:+:$PYTHONPATH} through literally)
PP = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}

.PHONY: test stress ledger ledger-smoke trace-smoke serve-smoke

# tier-1; the slowest 15 tests are listed after the run, so drift toward
# the suite's time ceiling (ROADMAP.md) shows in every log
test:
	$(PP) $(PYTHON) -m pytest -x -q --durations=15

# the threaded publication stress tests (caller threads promoting while
# another invalidates), with fault handler tracebacks should a thread wedge
stress:
	$(PP) PYTHONFAULTHANDLER=1 $(PYTHON) -m pytest -x -q \
		tests/vm/test_background.py tests/vm/test_shared_engine.py
	$(PP) PYTHONFAULTHANDLER=1 $(PYTHON) -m pytest -x -q \
		tests/properties/test_tier_differential.py -k "Threaded"

# the perf ledger, the repository's benchmark (BENCHMARK.json): every
# workload untraced then traced, result file under benchmarks/ledger/out/
# (benchmarks/ledger/README.md)
ledger:
	$(PP) $(PYTHON) -m benchmarks.ledger run

# the ledger's self-test plus every workload once (~20 s)
ledger-smoke:
	$(PP) $(PYTHON) -m pytest benchmarks/ledger -q --smoke

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
