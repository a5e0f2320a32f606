"""Driver entry point: one workload, one process, one JSON line.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S \\
        --trace 0|1 [--out DIR]

The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``: every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``.  Exit code 0 unless an op
failed or the system under test is missing.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result and, "
                        "when tracing, the spans into this directory")
    parser.add_argument("--smoke", action="store_true",
                        help="everything once (set-up, repetition, census "
                        "repetition): every code path in seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"ledger: no system under test at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.ledger import runner
    from benchmarks.ledger.metrics import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    work = runner.trace if args.trace else runner.measure
    result = work(args.workload, args.seed, args.seconds, args.smoke)
    spans = result.pop("spans", None)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}.seed{args.seed}"
        with open(out / f"{stem}.trace{args.trace}.json", "w") as fh:
            json.dump(result, fh, indent=1)
        if spans is not None:
            with open(out / f"trace-{stem}.json", "w") as fh:
                json.dump({"workload": args.workload, "env": result["env"],
                           "spans": spans}, fh)
    for failure in result["failures"]:
        print(f"failed op: {failure}", file=sys.stderr)
    print(json.dumps(runner.contract_line(result)))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
