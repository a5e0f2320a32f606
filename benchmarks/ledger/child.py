"""One process_start op: a fresh interpreter takes one shootout program
from source to result under ``tier="jit"`` and exits.  Prints one JSON
line: the result, how long importing ``repro`` took, the disk cache's
counters, and — only with ``--stages`` — where each stage began and
ended, in seconds since this file started executing."""

import sys
import time

_T0 = time.perf_counter()

import argparse
import json
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--program", required=True)
    parser.add_argument("--arg", type=int, required=True)
    parser.add_argument("--cache", default="-")
    parser.add_argument("--stages", action="store_true")
    args = parser.parse_args()

    stages = []

    def stage(name, fn, *a, **k):
        start = time.perf_counter()
        value = fn(*a, **k)
        stages.append((name, start - _T0, time.perf_counter() - _T0))
        return value

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    start = time.perf_counter()
    from repro.frontend import compile_c
    from repro.shootout import SUITE
    from repro.transform import PassManager
    from repro.vm import ExecutionEngine
    if args.cache != "-":
        from repro.serve import DiskCodeCache
    imported = time.perf_counter()
    stages.append(("python.import", start - _T0, imported - _T0))

    bench = SUITE[args.program]
    module = stage("frontend.compile_c", compile_c, bench.source,
                   module_name=bench.name)
    stage("transform.optimized",
          PassManager.pipeline("optimized").run_module, module)
    cache = None
    if args.cache != "-":
        cache = stage("serve.diskcache.open", DiskCodeCache, args.cache)
    engine = stage("vm.engine", ExecutionEngine, module, tier="jit",
                   disk_cache=cache)
    result = stage("vm.first_run", engine.run, bench.entry, args.arg)

    out = {"result": result, "import_ms": (imported - start) * 1e3,
           "diskcache": cache.stats() if cache is not None else None}
    if args.stages:
        out["stages"] = stages
        out["end"] = time.perf_counter() - _T0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
