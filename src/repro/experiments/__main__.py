"""Regenerate the paper's evaluation from the command line.

::

    python -m repro.experiments             # everything (several minutes)
    python -m repro.experiments q1 q4       # a subset
    python -m repro.experiments q1 --trials 5

Prints the data behind Figures 8, 10 and 11, Tables 2-4 and DESIGN.md's
Section 5 ablations; EXPERIMENTS.md records a run of each.
"""

from __future__ import annotations

import argparse
import sys

from .ablation import format_ablation, run_ablation
from .fig8 import format_fig8, run_fig8
from .q1 import format_q1, run_q1
from .q2 import format_q2, run_q2
from .q3 import format_q3, format_q3_state, run_q3, run_q3_state
from .q4 import format_q4, run_q4


def _q1(trials):
    return "\n\n".join(format_q1(run_q1(level=level, trials=trials))
                       for level in ("unoptimized", "optimized"))


def _q3(trials):
    return format_q3(run_q3()) + "\n\n" + format_q3_state(run_q3_state())


#: target -> (banner title, trials -> the rendered table)
TARGETS = {
    "q1": ("Q1 / Figures 10 & 11 — never-firing OSR point overhead", _q1),
    "q2": ("Q2 / Table 2 — cost of an OSR transition",
           lambda trials: format_q2(run_q2(trials=trials))),
    "q3": ("Q3 / Table 3 — OSR machinery generation", _q3),
    "q4": ("Q4 / Table 4 — feval optimization speedups",
           lambda trials: format_q4(run_q4(trials=trials))),
    "fig8": ("Figure 8 — intrusiveness of a never-firing OSR point",
             lambda trials: format_fig8(run_fig8())),
    "ablation": ("Ablation — OSRKit vs McOSR, stub vs inline generation",
                 lambda trials: format_ablation(run_ablation(trials=trials))),
}


def _target(name: str) -> str:
    # checked per name, not by ``choices=``: argparse tests an empty
    # ``*`` positional's whole value against ``choices``, and a list is
    # not a key of ``TARGETS``
    if name not in TARGETS:
        raise argparse.ArgumentTypeError(
            f"unknown target {name!r} (choose from {', '.join(TARGETS)})")
    return name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation tables.",
    )
    parser.add_argument(
        "experiments", nargs="*", default=list(TARGETS), type=_target,
        metavar="target",
        help=f"which experiments to run: {', '.join(TARGETS)} (default: all)",
    )
    parser.add_argument("--trials", type=int, default=3,
                        help="timed trials per configuration (default 3)")
    args = parser.parse_args(argv)

    banner = "=" * 72
    for target, (title, render) in TARGETS.items():
        if target in args.experiments:
            print(banner)
            print(title)
            print(banner)
            print(render(args.trials))
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
