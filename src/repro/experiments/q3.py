"""Q3 — cost of generating the OSR machinery itself (paper Table 3).

Measures, for each benchmark's hot function:

* inserting an *open* OSR point and generating its stub;
* inserting a *resolved* OSR point (target = the function itself) and
  generating the continuation function, reported both in total and
  normalized per IR instruction of the target.

As in the paper, these are one-shot IR manipulation costs, to be compared
against the (much larger) cost of JIT-compiling the continuation.

All timings come from the telemetry layer's spans (``osr.insert`` with
the nested ``osr.open_stub``/``osr.continuation``), so the numbers here
are exactly what a traced production run would report — no bespoke
re-measurement of the sub-steps.

:func:`run_q3_state` adds the companion state-size table: the number of
live values a FrameState would capture at each OSR site (function entry
+ every loop header — the speculation pass's guard sites) before and
after the ``scalarize`` pass, as mean/p50/p90/max per benchmark.  The
shootout programs index their arrays dynamically, so nothing splits and
the counts are equal: the table documents which real programs the SROA
bailouts leave untouched (``TestScalarizedOSRState`` in
``tests/core/test_resolved_osr.py`` pins the cut on a program that splits).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from ..analysis.manager import resolve_manager
from ..core import (
    HotCounterCondition,
    insert_open_osr_point,
    insert_resolved_osr_point,
)
from ..ir.function import Function
from ..obs import events as EV
from ..obs import local_telemetry
from ..shootout import SUITE, all_benchmarks, compile_benchmark
from ..vm import ExecutionEngine
from .sites import q1_locations
from .stats import span_total as _span_total


class Q3Row(NamedTuple):
    benchmark: str
    level: str
    ir_size: int              #: |IR| of the instrumented function
    open_insert: float        #: seconds: insert open point (incl. cond)
    open_stub: float          #: seconds: generate the stub
    resolved_insert: float    #: seconds: insert resolved point (w/o cont)
    resolved_total: float     #: seconds: generate f'_to
    cont_size: int            #: |IR| of the generated continuation

    @property
    def per_instruction(self) -> float:
        """Continuation generation time per IR instruction of the target."""
        return self.resolved_total / self.cont_size if self.cont_size else 0.0


def _dummy_generator(f, block, env, val):  # pragma: no cover
    raise AssertionError("Q3 never fires OSR points")


def run_q3(level: str = "optimized",
           names: Optional[List[str]] = None) -> List[Q3Row]:
    rows: List[Q3Row] = []
    benchmarks = all_benchmarks() if names is None else [
        SUITE[name] for name in names
    ]
    for benchmark in benchmarks:
        # --- open OSR: point insertion + stub generation -----------------
        # the insertion helpers trace an osr.insert span with the stub
        # generation as a nested osr.open_stub span; the split the paper
        # reports is the difference of the two timers
        open_module = compile_benchmark(benchmark, level)
        open_telemetry = local_telemetry()
        open_engine = ExecutionEngine(open_module, tier="jit",
                                      telemetry=open_telemetry)
        location = q1_locations(open_module, benchmark)[0]
        func = location.function
        ir_size = func.instruction_count

        insert_open_osr_point(
            func, location,
            HotCounterCondition(HotCounterCondition.NEVER),
            _dummy_generator, open_engine, val=None,
        )
        open_total = _span_total(open_telemetry, EV.OSR_INSERT)
        open_stub = _span_total(open_telemetry, EV.OSR_OPEN_STUB)
        open_insert = max(open_total - open_stub, 0.0)

        # --- resolved OSR: insertion + continuation generation ------------
        # same structure: osr.continuation nests inside osr.insert
        res_module = compile_benchmark(benchmark, level)
        res_telemetry = local_telemetry()
        res_engine = ExecutionEngine(res_module, tier="jit",
                                     telemetry=res_telemetry)
        location = q1_locations(res_module, benchmark)[0]
        func = location.function

        res_result = insert_resolved_osr_point(
            func, location,
            HotCounterCondition(HotCounterCondition.NEVER),
            engine=res_engine,
        )
        cont_size = res_result.continuation.instruction_count
        resolved_total_all = _span_total(res_telemetry, EV.OSR_INSERT)
        resolved_cont = _span_total(res_telemetry, EV.OSR_CONTINUATION)
        resolved_insert = max(resolved_total_all - resolved_cont, 0.0)

        rows.append(Q3Row(
            benchmark.name, level, ir_size,
            open_insert, open_stub,
            resolved_insert, resolved_cont, cont_size,
        ))
    return rows


class Q3StateRow(NamedTuple):
    benchmark: str
    level: str
    sites: int                #: OSR/guard sites measured (entry + headers)
    splits: int               #: aggregate allocas the SROA pass split
    before_mean: float        #: live slots per site, pre-scalarization
    before_p50: int
    before_p90: int
    before_max: int
    after_mean: float         #: live slots per site, post-scalarization
    after_p50: int
    after_p90: int
    after_max: int

    @property
    def reduction(self) -> float:
        """Fractional mean live-slot reduction (0.0 when nothing split)."""
        if self.before_mean <= 0:
            return 0.0
        return 1.0 - self.after_mean / self.before_mean


def _percentile(values: List[int], q: float) -> int:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]


def _site_live_counts(func: Function, am) -> List[int]:
    """Live-value count at every OSR/guard site of ``func``: the entry
    block plus each loop header, in the speculation pass's site order."""
    liveness = am.liveness(func)
    sites = [func.entry]
    for loop in am.loop_info(func).loops:
        if loop.header not in sites:
            sites.append(loop.header)
    return [len(liveness.live_at_block_entry(site)) for site in sites]


def run_q3_state(level: str = "unoptimized",
                 names: Optional[List[str]] = None) -> List[Q3StateRow]:
    """Measure FrameState slot counts per OSR site before vs after the
    ``scalarize`` pass, aggregated over every defined function of each
    benchmark module."""
    from ..transform.passmanager import scalarize_pass

    am = resolve_manager(None)
    rows: List[Q3StateRow] = []
    benchmarks = all_benchmarks() if names is None else [
        SUITE[name] for name in names
    ]
    for benchmark in benchmarks:
        module = compile_benchmark(benchmark, level)
        functions = [f for f in module.functions if not f.is_declaration]
        before: List[int] = []
        for func in functions:
            before.extend(_site_live_counts(func, am))
        splits = 0
        for func in functions:
            allocas_before = sum(
                1 for inst in func.instructions()
                if inst.opcode == "alloca"
            )
            preserved = scalarize_pass(func, am)
            if not preserved.preserves_all:
                am.invalidate(func, preserved)
                # scalarize replaces 1 aggregate alloca with N scalar
                # pieces and mem2reg then erases the pieces; the net
                # alloca delta is the split count
                allocas_after = sum(
                    1 for inst in func.instructions()
                    if inst.opcode == "alloca"
                )
                splits += max(allocas_before - allocas_after, 0)
        after: List[int] = []
        for func in functions:
            after.extend(_site_live_counts(func, am))
        rows.append(Q3StateRow(
            benchmark.name, level, len(before), splits,
            sum(before) / len(before) if before else 0.0,
            _percentile(before, 0.50) if before else 0,
            _percentile(before, 0.90) if before else 0,
            max(before) if before else 0,
            sum(after) / len(after) if after else 0.0,
            _percentile(after, 0.50) if after else 0,
            _percentile(after, 0.90) if after else 0,
            max(after) if after else 0,
        ))
    return rows


def format_q3_state(rows: List[Q3StateRow]) -> str:
    """Render the state-size table (live FrameState slots per OSR site)."""
    lines = [
        "Q3 state: FrameState slots per OSR site, before/after scalarize",
        f"{'benchmark':<14} {'sites':>5} {'split':>5} | "
        f"{'mean':>6} {'p50':>4} {'p90':>4} {'max':>4} | "
        f"{'mean':>6} {'p50':>4} {'p90':>4} {'max':>4} | {'reduction':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row.benchmark:<14} {row.sites:>5} {row.splits:>5} | "
            f"{row.before_mean:>6.2f} {row.before_p50:>4} "
            f"{row.before_p90:>4} {row.before_max:>4} | "
            f"{row.after_mean:>6.2f} {row.after_p50:>4} "
            f"{row.after_p90:>4} {row.after_max:>4} | "
            f"{row.reduction * 100:>8.1f}%"
        )
    return "\n".join(lines)


def format_q3(rows: List[Q3Row]) -> str:
    """Render rows the way Table 3 reports them (times in microseconds)."""
    lines = [
        "Q3: OSR machinery insertion",
        f"{'benchmark':<14} {'|IR|':>5} | {'open: insert':>13} "
        f"{'gen stub':>9} | {'res: insert':>12} {'gen f_to':>9} "
        f"{'avg/inst':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row.benchmark:<14} {row.ir_size:>5} | "
            f"{row.open_insert * 1e6:>10.1f} us {row.open_stub * 1e6:>6.1f} us | "
            f"{row.resolved_insert * 1e6:>9.1f} us "
            f"{row.resolved_total * 1e6:>6.1f} us "
            f"{row.per_instruction * 1e6:>6.2f} us"
        )
    return "\n".join(lines)
