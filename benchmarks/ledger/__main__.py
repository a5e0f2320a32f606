"""``python -m benchmarks.ledger <run | trace | compare | regen-expected>``.

``run`` drives every workload, each in its own fresh interpreter (heap
growth in one cannot slow the next; three back-to-back passes in one
process drifted +14 %), one after the other, untraced and then traced,
prints every metric by name with its unit, and writes
``<out>/ledger-seed<N>.json``.  ``trace`` makes the traced pass only.
Every run measures for ``run_seconds`` of ``BENCHMARK.json``, so any two
result files compare.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from . import compare as comparing
from .metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
DEFAULT_OUT = HERE / "out"
CONTRACT = HERE.parents[1] / "BENCHMARK.json"


def run_seconds() -> int:
    with open(CONTRACT) as fh:
        return json.load(fh)["run_seconds"]


def run_one(workload: str, seed: int, seconds: int, traced: int,
            out: Path) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(traced), "--out", str(out)]
    proc = subprocess.run(command, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    result_file = out / f"{workload}.seed{seed}.trace{traced}.json"
    if not result_file.is_file():
        raise SystemExit(f"{workload}: no result (exit {proc.returncode})")
    with open(result_file) as fh:
        return json.load(fh)


def print_untraced(result: dict) -> None:
    workload = result["workload"]
    print(f"\n{workload}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed, "
          f"{result['env']['repetitions']} repetitions, "
          f"machine at {result['speed_factor']:.2f}x the reference time")
    print(f"  {'metric':<24} {'value':>11} {'unit':<3} {'n':>5} "
          f"{'lower q.':>10} {'tail':>14} {'bound':>6}  measured on")
    for metric in END_TO_END:
        figures = result["metrics"][metric.name]
        if metric.name == "setup_s":
            print(f"  {metric.name:<24} {figures['value']:>11.4f} s   "
                  f"{len(result['setup_samples_s']):>5} {'':>25} "
                  f"{metric.bound:>6.0%}")
            continue
        if not figures["samples"]:
            print(f"  {metric.name:<24} {'no samples':>11}")
            continue
        where = "full set" if metric.home == workload else "census"
        tail = (f"p{figures['tail_percentile']:g} "
                f"{figures['tail_over_median']:.2f}x")
        print(f"  {metric.name:<24} {figures['value']:>11.4f} "
              f"{figures['unit']:<3} {figures['samples']:>5} "
              f"{figures['lower_quartile']:>10.4f} {tail:>14} "
              f"{metric.bound:>6.0%}  {where}")


def print_traced(result: dict) -> None:
    workload = result["workload"]
    print(f"\n{workload} (traced): {result['attempted']} ops "
          f"attempted, {result['failed']} failed")
    for layer in PER_LAYER:
        if layer.home in (None, workload):
            figures = result["metrics"][layer.name]
            exact = "  exact" if layer.exact else ""
            print(f"  {layer.name:<34} {figures['value']:>14.4f} "
                  f"{figures['unit']}{exact}")


def command_run(args, passes) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seconds = run_seconds()
    ledger = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    failed = 0
    for workload in args.workload or list(WORKLOADS):
        entry = ledger["workloads"].setdefault(workload, {})
        for traced in passes:
            result = run_one(workload, args.seed, seconds, traced, out)
            entry["traced" if traced else "untraced"] = result
            (print_traced if traced else print_untraced)(result)
            for failure in result["failures"]:
                print(f"  FAILED OP: {failure}")
            failed += result["failed"]
            ledger.setdefault("env", result["env"])
    path = out / f"ledger-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump(ledger, fh, indent=1)
    print(f"\nwrote {path}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger",
                                     description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "untraced then traced pass per workload"),
                       ("trace", "traced pass only")):
        sub = commands.add_parser(name, help=text)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--workload", action="append",
                         choices=list(WORKLOADS))
        sub.add_argument("--out", default=str(DEFAULT_OUT))
    sub = commands.add_parser("compare", help="A against B, per metric "
                              "and workload; exit 1 on a regression")
    sub.add_argument("a")
    sub.add_argument("b")
    commands.add_parser("regen-expected",
                        help="recompute expected.json from the oracles")
    args = parser.parse_args(argv)

    if args.command == "compare":
        return comparing.compare(args.a, args.b)
    if args.command == "regen-expected":
        from .expected import PATH, regenerate

        regenerate()
        print(f"wrote {PATH}")
        return 0
    return command_run(args, (1,) if args.command == "trace" else (0, 1))


if __name__ == "__main__":
    sys.exit(main())
