"""Command-line trace tooling.

::

    python -m repro.obs smoke --out trace.json  # traced shootout run
    python -m repro.obs validate trace.json   # event table + schema check
    python -m repro.obs journey               # per-function tier journeys

``validate`` and ``journey`` accept any Chrome trace-event document (the
files :func:`repro.obs.write_chrome_trace`, ``FlightRecorder.dump`` and
``make trace-smoke`` produce, or a bare event array); ``validate`` exits
1 when the trace breaks the schema, and ``journey`` without a trace
argument runs the smoke scenario itself.
"""

from __future__ import annotations

import argparse
import sys

from .export import format_trace_report, load_chrome_trace, validate_chrome_trace


def _run_journey(args) -> int:
    from .journey import build_journeys, format_journeys

    if args.trace is not None:
        events = load_chrome_trace(args.trace)
        title = f"tier journeys: {args.trace}"
    else:
        from .smoke import run_trace_smoke

        result = run_trace_smoke(benchmark_name=args.benchmark)
        events = result.telemetry.events
        title = f"tier journeys: traced {args.benchmark} run"
    journeys = build_journeys(events)
    print(title)
    print(format_journeys(journeys, function=args.function,
                          max_steps=args.max_steps))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect and validate repro VM traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_smoke = sub.add_parser(
        "smoke",
        help="run a traced shootout program and validate the trace",
    )
    p_smoke.add_argument("--benchmark", default="n-body")
    p_smoke.add_argument("--out", default=None, metavar="PATH",
                         help="also write the Chrome trace to PATH")

    p_validate = sub.add_parser(
        "validate",
        help="print a trace's event table and check it against the schema",
    )
    p_validate.add_argument("trace", help="Chrome trace-event JSON file")

    p_journey = sub.add_parser(
        "journey",
        help="per-function tier-journey report from a trace (or a fresh run)",
    )
    p_journey.add_argument("trace", nargs="?", default=None,
                           help="Chrome trace-event JSON file (omit to run "
                                "the smoke scenario)")
    p_journey.add_argument("--benchmark", default="n-body")
    p_journey.add_argument("--function", default=None,
                           help="show only this function's journey")
    p_journey.add_argument("--max-steps", type=int, default=20)
    args = parser.parse_args(argv)

    if args.command == "validate":
        events = load_chrome_trace(args.trace)
        print(format_trace_report(events, title=f"trace report: {args.trace}"))
        problems = validate_chrome_trace(events)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        print(f"{args.trace}: {len(events)} events, schema ok")
        return 0

    if args.command == "journey":
        return _run_journey(args)

    # smoke
    from .export import chrome_trace_events
    from .smoke import run_trace_smoke

    result = run_trace_smoke(benchmark_name=args.benchmark, out=args.out)
    events = chrome_trace_events(result.telemetry)
    print(format_trace_report(events, title="trace-smoke report"))
    if args.out:
        print(f"wrote {args.out}")
    for problem in result.problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    for name in result.missing:
        print(f"MISSING: required event {name!r} absent", file=sys.stderr)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
