"""``compare A B``: did B get worse than A?

A and B are result files written by ``run`` (``ledger-seed<N>.json``) or
directories holding several of them — one set of runs per side.  Each
end-to-end metric gets a row on its home workload (``setup_s`` on every
workload; census values serve the driver and are not compared): both
medians, the ratio with its base, the metric's bound, and a verdict:

``ok``          B's median is not worse than A's by more than the bound
``worse``       it is
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so the runs cannot tell

Exit status 1 on any ``worse`` row, when B fails a larger share of its
ops than A, or when a count that must repeat exactly does not: between
the runs of one side, or between the sides when they are one commit
(``env.git_sha``).  Exit status 2 when the runs were not all measured for
the same number of seconds.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from .metrics import E2E_BY_NAME, LAYER_BY_NAME
from .stats import spread

Key = Tuple[str, str]  # (metric, workload)


def load_runs(path) -> List[dict]:
    path = Path(path)
    files = sorted(path.glob("ledger-*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare: no ledger-*.json under {path}")
    runs = []
    for file in files:
        with open(file) as fh:
            runs.append(json.load(fh))
    return runs


def collect(runs: List[dict], which: str, table: dict
            ) -> Dict[Key, List[float]]:
    """``which`` is "untraced" (end-to-end) or "traced" (per-layer);
    ``table`` names each metric's home workload (None = every one)."""
    values: Dict[Key, List[float]] = {}
    for run in runs:
        for workload, passes in run["workloads"].items():
            result = passes.get(which)
            if result is None:
                continue
            for metric, figures in result["metrics"].items():
                if table[metric].home in (None, workload):
                    values.setdefault((metric, workload), []).append(
                        figures["value"])
    return values


def failed_share(runs: List[dict]) -> float:
    attempted = failed = 0
    for run in runs:
        for passes in run["workloads"].values():
            for result in passes.values():
                attempted += result["attempted"]
                failed += result["failed"]
    return failed / attempted if attempted else 0.0


def verdict(base: List[float], new: List[float], bound: float,
            better: str = "lower") -> Tuple[str, float]:
    a, b = statistics.median(base), statistics.median(new)
    ratio = b / a if a else float("inf")
    if max(spread(base), spread(new)) > bound:
        return "unresolved", ratio
    worse = ratio > 1.0 + bound if better == "lower" else (
        ratio < 1.0 - bound)
    return ("worse" if worse else "ok"), ratio


def compare(path_a, path_b, out=print) -> int:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    lengths = {run["seconds"] for run in runs_a + runs_b}
    if len(lengths) > 1:
        out(f"compare: runs measured for {sorted(lengths)} seconds "
            "do not compare")
        return 2
    status = 0

    out(f"end-to-end: A = {path_a} ({len(runs_a)} run(s)), "
        f"B = {path_b} ({len(runs_b)} run(s))")
    out(f"{'metric':<24} {'workload':<16} {'A median':>12} {'B median':>12} "
        f"{'B/A':>7} {'bound':>6}  verdict")
    a = collect(runs_a, "untraced", E2E_BY_NAME)
    b = collect(runs_b, "untraced", E2E_BY_NAME)
    for key in sorted(a.keys() & b.keys(), key=lambda k: (k[1], k[0])):
        metric, workload = key
        bound = E2E_BY_NAME[metric].bound
        word, ratio = verdict(a[key], b[key], bound)
        out(f"{metric:<24} {workload:<16} {statistics.median(a[key]):>12.4f} "
            f"{statistics.median(b[key]):>12.4f} {ratio:>6.3f}x "
            f"{bound:>5.0%}  {word}")
        if word == "worse":
            status = 1

    a = collect(runs_a, "traced", LAYER_BY_NAME)
    b = collect(runs_b, "traced", LAYER_BY_NAME)
    # without a SHA (no git) the sides are taken to be one commit
    one_commit = len({run.get("env", {}).get("git_sha")
                      for run in runs_a + runs_b}) == 1
    if a and b:
        out("")
        out("per-layer (not gated; exact counts must match on one commit)")
        out(f"{'metric':<34} {'workload':<16} {'A median':>14} "
            f"{'B median':>14} {'B/A':>8}  note")
        for key in sorted(a.keys() & b.keys(), key=lambda k: (k[1], k[0])):
            metric, workload = key
            ma, mb = statistics.median(a[key]), statistics.median(b[key])
            ratio = f"{mb / ma:>7.3f}x" if ma else f"{'-':>8}"
            note = ""
            if LAYER_BY_NAME[metric].exact:
                if len(set(a[key])) > 1 or len(set(b[key])) > 1:
                    note = "exact: DOES NOT REPEAT"
                    status = 1
                elif a[key][0] != b[key][0]:
                    note = "exact: DIFFERS"
                    if one_commit:
                        status = 1
                else:
                    note = "exact: same"
            out(f"{metric:<34} {workload:<16} {ma:>14.4f} {mb:>14.4f} "
                f"{ratio}  {note}")

    share_a, share_b = failed_share(runs_a), failed_share(runs_b)
    out("")
    out(f"failed ops: A {share_a:.2%}, B {share_b:.2%}")
    if share_b > share_a:
        out("B fails a larger share of its ops than A")
        status = 1
    return status
