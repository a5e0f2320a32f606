"""Command-line trace tooling.

::

    python -m repro.obs report trace.json     # event counts + span timings
    python -m repro.obs validate trace.json   # schema check (exit 1 on fail)
    python -m repro.obs smoke --out trace.json  # traced shootout run
    python -m repro.obs flight                # shootout on the flight ring
    python -m repro.obs profile               # sampled shootout run
    python -m repro.obs journey               # per-function tier journeys

``report``, ``validate`` and ``journey`` accept any Chrome trace-event
document (the files :func:`repro.obs.write_chrome_trace` and
``make trace-smoke`` produce, or a bare event array); ``journey``
without a trace argument runs the smoke scenario itself.
"""

from __future__ import annotations

import argparse
import sys

from .export import format_trace_report, load_chrome_trace, validate_chrome_trace


def _run_flight(args) -> int:
    from .export import chrome_events_from_raw
    from .smoke import run_trace_smoke
    from .telemetry import production_telemetry

    telemetry = production_telemetry(capacity=args.capacity)
    result = run_trace_smoke(benchmark_name=args.benchmark,
                             telemetry=telemetry, tier=args.tier)
    flight = telemetry.flight
    stats = flight.stats()
    print(format_trace_report(chrome_events_from_raw(flight.events),
                              title="flight-recorder report"))
    print(f"ring: {stats['buffered']}/{stats['capacity']} buffered, "
          f"{stats['recorded']} recorded, {stats['dropped']} dropped")
    if stats["anomalies"]:
        print(f"anomalies: {', '.join(stats['anomalies'])}")
    if args.out:
        flight.dump(args.out)
        print(f"wrote {args.out}")
    print(f"checksum: {result.checksum}")
    return 0


def _run_profile(args) -> int:
    from .profiler import SamplingProfiler
    from .smoke import run_trace_smoke
    from .telemetry import Telemetry

    profiler = SamplingProfiler(interval=args.interval)
    with profiler:
        result = run_trace_smoke(benchmark_name=args.benchmark,
                                 telemetry=Telemetry(), tier=args.tier)
    print(profiler.report(title=f"sampling profile: {args.benchmark} "
                                f"[{args.tier}]"))
    if args.collapsed:
        with open(args.collapsed, "w") as fh:
            fh.write("\n".join(profiler.collapsed()) + "\n")
        print(f"wrote {args.collapsed}")
    print(f"checksum: {result.checksum}")
    return 0


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

    p_report = sub.add_parser("report", help="print the table report")
    p_report.add_argument("trace", help="Chrome trace-event JSON file")

    p_validate = sub.add_parser("validate",
                                help="check a trace against the schema")
    p_validate.add_argument("trace", help="Chrome trace-event JSON file")

    p_smoke = sub.add_parser(
        "smoke",
        help="run a traced shootout program and validate the trace",
    )
    p_smoke.add_argument("--benchmark", default="n-body")
    p_smoke.add_argument("--out", default=None, metavar="PATH",
                         help="also write the Chrome trace to PATH")

    p_flight = sub.add_parser(
        "flight",
        help="run a shootout program on the always-on flight recorder",
    )
    p_flight.add_argument("--benchmark", default="n-body")
    p_flight.add_argument("--tier", default="tiered")
    p_flight.add_argument("--capacity", type=int, default=None,
                          help="ring capacity (default 4096)")
    p_flight.add_argument("--out", default=None, metavar="PATH",
                          help="dump the ring as a Chrome trace to PATH")

    p_profile = sub.add_parser(
        "profile",
        help="run a shootout program under the sampling profiler",
    )
    p_profile.add_argument("--benchmark", default="n-body")
    p_profile.add_argument("--tier", default="tiered")
    p_profile.add_argument("--interval", type=float, default=0.002,
                           metavar="S", help="sampling interval in seconds")
    p_profile.add_argument("--collapsed", default=None, metavar="PATH",
                           help="write collapsed stacks for flamegraph.pl")

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

    if args.command == "report":
        events = load_chrome_trace(args.trace)
        print(format_trace_report(events, title=f"trace report: {args.trace}"))
        return 0

    if args.command == "validate":
        events = load_chrome_trace(args.trace)
        problems = validate_chrome_trace(events)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        print(f"{args.trace}: {len(events)} events, schema ok")
        return 0

    if args.command == "flight":
        if args.capacity is None:
            from .flight import DEFAULT_CAPACITY

            args.capacity = DEFAULT_CAPACITY
        return _run_flight(args)

    if args.command == "profile":
        return _run_profile(args)

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
