"""The VM-wide event vocabulary and its well-formedness rules.

Every telemetry hook in the runtime emits one of the names below; the
vocabulary is closed so that traces stay comparable across PRs and the
exporters/tests can validate streams structurally.  Names are dotted
``subsystem.action`` pairs, grouped by the layer that emits them:

========================  =====  ==================================================
name                      kind   emitted when
========================  =====  ==================================================
``engine.invalidate``     event  a compiled form is dropped (body rewritten)
``tier.promote``          event  the tiered dispatcher promotes a function to JIT
``tier.demote``           event  an invalidation demotes a promoted function
``profile.call_hot``      event  the call counter crossed its threshold
``profile.backedge_hot``  event  the loop back-edge counter crossed its threshold
``jit.compile``           span   cold code generation (AST build + ``compile()``)
``codegen.build``         span   the pure AST-construction + bytecode-compile step
``jit.cache_hit``         event  warm materialization from the code cache
``jit.cache_miss``        event  the cache had no valid artifact
``jit.fallback``          event  the JIT could not nest a function: it runs on the tree-walker
``decode.bailout``        event  the pre-decoder fell back to the tree-walker
``decode.fuse``           event  the decoder fused superinstructions in a function
``osr.insert``            span   an OSR point is inserted (resolved/open/mcosr/feval)
``osr.open_stub``         span   an open-OSR stub (Figure 6) is generated
``osr.continuation``      span   a continuation function (Figure 7) is generated
``osr.compensation``      event  compensation entries materialized in ``osr.entry``
``osr.fire``              event  an OSR point fired and control was transferred
``osr.state_size``        event  an OSR site recorded its live-state slot count
``scalarize.split``       event  SROA split an aggregate alloca into scalar pieces
``feval.specialize``      span   the feval optimizer specializes + recompiles
``feval.cache_hit``       event  a fired feval OSR reused a stored continuation
``feval.guard_fail``      event  a feval guard/handle check failed at run time
``spec.specialize``       span   the speculation pass clones + specializes a function
``spec.dispatch``         event  an entry check missed and the call went to a sibling version
``spec.respecialize``     event  a new stable profile produced another specialization
``spec.pinned``           event  the thrash limit pinned a function to baseline
``deopt.guard_fail``      event  a specialization's entry check (or a feval guard) missed
``deopt.exit``            event  a miss continued in compiled code (``call``/``external``)
``analysis.cache_hit``    event  the analysis manager served a cached result
``analysis.cache_miss``   event  an analysis was (re)computed and cached
``analysis.invalidate``   event  a rewrite dropped/migrated cached analyses
``compile.start``         event  a promotion began compiling on the calling thread
``compile.install``       event  the finished code was atomically published
``compile.discard``       event  a promotion published nothing (generation raced, JIT error)
``flight.anomaly``        event  the flight recorder tripped an anomaly trigger
``diskcache.hit``         event  a JIT miss was served from the persistent disk cache
``diskcache.miss``        event  the disk cache had no valid entry for the stamp
``diskcache.write``       event  a fresh artifact was written through to disk
========================  =====  ==================================================

*event* entries are instants (``ph: "i"``); *span* entries are single
**complete** events (``ph: "X"`` with the start in ``ts`` and a ``dur``)
appended when the span ends.  That is the one span shape, whichever sink
recorded it; every event also carries the emitting thread's ``tid``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

ENGINE_INVALIDATE = "engine.invalidate"
TIER_PROMOTE = "tier.promote"
TIER_DEMOTE = "tier.demote"
PROFILE_CALL_HOT = "profile.call_hot"
PROFILE_BACKEDGE_HOT = "profile.backedge_hot"
JIT_COMPILE = "jit.compile"
CODEGEN_BUILD = "codegen.build"
JIT_CACHE_HIT = "jit.cache_hit"
JIT_CACHE_MISS = "jit.cache_miss"
JIT_FALLBACK = "jit.fallback"
DECODE_BAILOUT = "decode.bailout"
DECODE_FUSE = "decode.fuse"
OSR_INSERT = "osr.insert"
OSR_OPEN_STUB = "osr.open_stub"
OSR_CONTINUATION = "osr.continuation"
OSR_COMPENSATION = "osr.compensation"
OSR_FIRE = "osr.fire"
OSR_STATE_SIZE = "osr.state_size"
SCALARIZE_SPLIT = "scalarize.split"
FEVAL_SPECIALIZE = "feval.specialize"
FEVAL_CACHE_HIT = "feval.cache_hit"
FEVAL_GUARD_FAIL = "feval.guard_fail"
SPEC_SPECIALIZE = "spec.specialize"
SPEC_DISPATCH = "spec.dispatch"
SPEC_RESPECIALIZE = "spec.respecialize"
SPEC_PINNED = "spec.pinned"
DEOPT_GUARD_FAIL = "deopt.guard_fail"
DEOPT_EXIT = "deopt.exit"
ANALYSIS_CACHE_HIT = "analysis.cache_hit"
ANALYSIS_CACHE_MISS = "analysis.cache_miss"
ANALYSIS_INVALIDATE = "analysis.invalidate"
COMPILE_START = "compile.start"
COMPILE_INSTALL = "compile.install"
COMPILE_DISCARD = "compile.discard"
FLIGHT_ANOMALY = "flight.anomaly"
DISKCACHE_HIT = "diskcache.hit"
DISKCACHE_MISS = "diskcache.miss"
DISKCACHE_WRITE = "diskcache.write"

#: metrics-only names (no trace events): the per-call dispatch latency
#: timer, backed by a percentile histogram
ENGINE_DISPATCH = "engine.dispatch"
#: live-slot-count gauges: the most recent OSR live-state
#: width and the most recent decoded frame width (slots per frame)
OSR_LIVE_SLOTS = "osr.live_slots"
DECODE_FRAME_SLOTS = "decode.frame_slots"

#: names emitted as instant events
INSTANT_NAMES = frozenset({
    ENGINE_INVALIDATE,
    TIER_PROMOTE,
    TIER_DEMOTE,
    PROFILE_CALL_HOT,
    PROFILE_BACKEDGE_HOT,
    JIT_CACHE_HIT,
    JIT_CACHE_MISS,
    JIT_FALLBACK,
    DECODE_BAILOUT,
    DECODE_FUSE,
    OSR_COMPENSATION,
    OSR_FIRE,
    OSR_STATE_SIZE,
    SCALARIZE_SPLIT,
    FEVAL_CACHE_HIT,
    FEVAL_GUARD_FAIL,
    SPEC_DISPATCH,
    SPEC_RESPECIALIZE,
    SPEC_PINNED,
    DEOPT_GUARD_FAIL,
    DEOPT_EXIT,
    ANALYSIS_CACHE_HIT,
    ANALYSIS_CACHE_MISS,
    ANALYSIS_INVALIDATE,
    COMPILE_START,
    COMPILE_INSTALL,
    COMPILE_DISCARD,
    FLIGHT_ANOMALY,
    DISKCACHE_HIT,
    DISKCACHE_MISS,
    DISKCACHE_WRITE,
})

#: names emitted as spans (one complete event each)
SPAN_NAMES = frozenset({
    JIT_COMPILE,
    CODEGEN_BUILD,
    OSR_INSERT,
    OSR_OPEN_STUB,
    OSR_CONTINUATION,
    FEVAL_SPECIALIZE,
    SPEC_SPECIALIZE,
})

#: the complete, closed vocabulary
EVENT_NAMES = INSTANT_NAMES | SPAN_NAMES

_SCALARS = (str, int, float, bool, type(None))


def nests(done: List[Tuple[float, float]], start: float, end: float,
          slack: float = 0) -> bool:
    """Fold one finished span into ``done`` — its thread's finished
    spans that no later span encloses yet, in completion order — and say
    whether it nests with them: each earlier span is either inside it or
    over before it starts."""
    while done and done[-1][0] >= start:
        done.pop()
    ok = not done or done[-1][1] <= start + slack
    done.append((start, end))
    return ok


def validate_events(events: Iterable[Dict[str, object]]) -> List[str]:
    """Structural well-formedness check for a raw tracer event stream.

    Each event is a dict with ``name``, ``ph`` (``"i"`` or ``"X"``),
    ``ts`` (int nanoseconds), ``tid`` (int), ``args`` (flat dict of JSON
    scalars) and, for ``X``, a non-negative int ``dur``.  Returns a list
    of human-readable problems, empty when the stream is well formed:

    * every name belongs to the vocabulary and uses its declared phase;
    * events are in completion order: ``ts`` (``ts + dur`` for a span)
      never decreases;
    * the spans of one ``tid`` nest or are disjoint;
    * args carry only JSON-serializable scalar values.
    """
    problems: List[str] = []
    done_by_tid: Dict[object, List[Tuple[float, float]]] = {}
    last_end = None
    for index, event in enumerate(events):
        where = f"event #{index}"
        name = event.get("name")
        phase = event.get("ph")
        ts = event.get("ts")
        tid = event.get("tid")
        args = event.get("args", {})
        if not isinstance(name, str) or name not in EVENT_NAMES:
            problems.append(f"{where}: unknown event name {name!r}")
            continue
        if phase == "i" and name not in INSTANT_NAMES:
            problems.append(f"{where}: span name {name!r} emitted as instant")
        elif phase == "X" and name not in SPAN_NAMES:
            problems.append(f"{where}: instant name {name!r} emitted as span")
        elif phase not in ("i", "X"):
            problems.append(f"{where}: unknown phase {phase!r}")
        dur = 0
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                problems.append(
                    f"{where}: complete event without a non-negative "
                    f"integer dur: {dur!r}"
                )
                dur = 0
        if not isinstance(tid, int):
            problems.append(f"{where}: non-integer tid {tid!r}")
        if not isinstance(ts, int):
            problems.append(f"{where}: non-integer timestamp {ts!r}")
        else:
            end = ts + dur
            if last_end is not None and end < last_end:
                problems.append(
                    f"{where}: completion time went backwards "
                    f"({end} < {last_end})"
                )
            last_end = end
            if phase == "X" and not nests(
                    done_by_tid.setdefault(tid, []), ts, end):
                problems.append(
                    f"{where}: span {name!r} partially overlaps an "
                    f"earlier span of thread {tid!r}"
                )
        if not isinstance(args, dict):
            problems.append(f"{where}: args is not a dict: {args!r}")
        else:
            for key, value in args.items():
                if not isinstance(key, str):
                    problems.append(f"{where}: non-string arg key {key!r}")
                if not isinstance(value, _SCALARS):
                    problems.append(
                        f"{where}: arg {key!r} is not a JSON scalar: "
                        f"{value!r}"
                    )
    return problems
