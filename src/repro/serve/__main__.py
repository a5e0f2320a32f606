"""Command-line smoke for the persistent code cache.

``python -m repro.serve smoke --cache DIR`` builds a compile-bound
module, runs every function once on a ``jit``-tier engine attached to
the persistent cache at ``DIR``, and prints the cache counters.  Run it
twice against the same directory and the second process must be served
entirely from disk — which is exactly what CI does::

    python -m repro.serve smoke --cache /tmp/warm
    python -m repro.serve smoke --cache /tmp/warm --expect-hits

``--expect-hits`` makes a cold compile (any ``misses``) a non-zero
exit, so a regression in keying, serialization or the engine wiring
fails the pipeline instead of silently cooling every start.
"""

from __future__ import annotations

import argparse
import sys

from ..ir import parse_module
from ..vm import ExecutionEngine


def _chain_source(name: str, blocks: int) -> str:
    """A straight-line i64 function whose codegen cost grows with
    ``blocks`` — compile-bound, result checkable in O(1)."""
    lines = [f"define i64 @{name}(i64 %x) {{", "entry:", "  br label %b0"]
    value = "%x"
    for i in range(blocks):
        target = f"b{i + 1}" if i + 1 < blocks else "done"
        lines += [
            f"b{i}:",
            f"  %a{i} = add i64 {value}, {i}",
            f"  %m{i} = mul i64 %a{i}, 3",
            f"  %s{i} = sub i64 %m{i}, {i + 1}",
            f"  br label %{target}",
        ]
        value = f"%s{i}"
    lines += ["done:", f"  ret i64 {value}", "}"]
    return "\n".join(lines)


def smoke_source(functions: int, blocks: int) -> str:
    return "\n\n".join(
        _chain_source(f"chain{i}", blocks + 5 * i) for i in range(functions)
    )


def run_smoke(cache_dir: str, functions: int, blocks: int,
              expect_hits: bool) -> int:
    module = parse_module(smoke_source(functions, blocks))
    engine = ExecutionEngine(module, tier="jit", disk_cache=cache_dir)
    results = [engine.run(f"chain{i}", 7) for i in range(functions)]
    stats = engine.disk_cache.stats()
    print(f"smoke: {functions} functions x ~{blocks} blocks, "
          f"checksum={sum(results)}")
    print("diskcache:", " ".join(
        f"{key}={value}" for key, value in sorted(stats.items())))
    if expect_hits:
        if stats["misses"] or stats["hits"] != functions:
            print(f"FAIL: expected {functions} warm hits and 0 misses, "
                  f"got hits={stats['hits']} misses={stats['misses']} "
                  f"rejected={stats['rejected']}", file=sys.stderr)
            return 1
        print(f"OK: warm start served all {functions} compiles from disk")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.serve")
    sub = parser.add_subparsers(dest="command", required=True)
    smoke = sub.add_parser("smoke", help="warm-start round trip")
    smoke.add_argument("--cache", required=True,
                       help="persistent cache directory")
    smoke.add_argument("--functions", type=int, default=4)
    smoke.add_argument("--blocks", type=int, default=60)
    smoke.add_argument("--expect-hits", action="store_true",
                       help="fail unless every compile was a disk hit")
    options = parser.parse_args(argv)
    return run_smoke(options.cache, options.functions, options.blocks,
                     options.expect_hits)


if __name__ == "__main__":
    raise SystemExit(main())
