"""The perf ledger: the repository's committed benchmark.

Five workloads time mini-C / MATLAB *source -> result* through public
``repro`` calls only, from outside; sixteen end-to-end metrics are gated
by ``BENCHMARK.json`` at the repository root, and a traced pass
attributes the time to layers (package names).  See ``README.md`` in
this directory for the glossary and the measurement rules.

::

    python -m benchmarks.ledger run --seed 1 --out OUT     # every workload
    python -m benchmarks.ledger compare OUT_A OUT_B
    python3 benchmarks/ledger/run.py --workload compile_cold --seed 1 \\
        --seconds 10 --trace 0                              # driver contract
"""
