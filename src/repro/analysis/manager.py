"""Cached, invalidation-aware analyses — LLVM's new-pass-manager idea.

The OSR machinery consults the same handful of analyses (liveness,
dominators, loops) over and over for the same function body: resolved
and open OSR insertion both need liveness at the instrumentation point,
continuation generation needs it again at the landing block, speculation
re-derives loop info for every specialization of an unchanged baseline.
Rebuilding each result from scratch at every use site is pure waste —
the ``code_version`` stamp that already keys the JIT code cache keys an
analysis cache just as well.

:class:`AnalysisManager` computes lazily and caches per
``(function, code_version)``; transform passes return a
:class:`PreservedAnalyses` set so invalidation is selective — a pass
that rewrites instructions but not the CFG keeps the dominator tree and
loop forest cached while liveness is recomputed.  As a safety net
against bodies mutated without a version bump, every cached entry also
records a structural stamp (block count for CFG-level analyses, full
``code_shape()`` for body-level ones) checked on lookup.

Cache hits, misses and invalidations feed the closed telemetry
vocabulary (``analysis.cache_hit`` / ``analysis.cache_miss`` /
``analysis.invalidate``) and the manager's own counters, surfaced by
``ExecutionEngine.stats_snapshot()["analysis"]``.

The manager is thread-safe: background compile workers and the main
thread share one cache, so a reentrant lock serializes every query and
invalidation.  Computation happens under the lock — two threads asking
for the same analysis never race a half-built result into the cache,
at the cost of serializing concurrent computes (they are cold-path).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, FrozenSet, NamedTuple, Optional, Tuple

from ..ir.function import Function
from ..obs import events as EV
from ..obs.telemetry import ambient as ambient_telemetry
from .dominators import DominatorTree, RangeFacts
from .escape import EscapeInfo, _same_escape
from .liveness import LivenessInfo
from .loops import LoopInfo

#: granularity of the structural stamp guarding a cached entry: CFG-level
#: results survive instruction-only rewrites, body-level results do not
GRANULARITY_CFG = "cfg"
GRANULARITY_BODY = "body"


def _same_domtree(a: DominatorTree, b: DominatorTree) -> bool:
    def key(tree):
        return {id(block): id(dom) for block, dom in tree.idom.items()}

    return key(a) == key(b)


def _same_ranges(a: RangeFacts, b: RangeFacts) -> bool:
    def key(info):
        return {id(block): {id(value): interval
                            for value, interval in facts.items()}
                for block, facts in info.facts.items()}

    return key(a) == key(b)


def _same_loops(a: LoopInfo, b: LoopInfo) -> bool:
    def key(info):
        return {
            (id(loop.header), frozenset(id(block) for block in loop.blocks))
            for loop in info.loops
        }

    return key(a) == key(b)


def _same_liveness(a: LivenessInfo, b: LivenessInfo) -> bool:
    def key(sets):
        return {
            id(block): frozenset(id(v) for v in values)
            for block, values in sets.items()
        }

    return (key(a.live_in) == key(b.live_in)
            and key(a.live_out) == key(b.live_out))


class AnalysisSpec(NamedTuple):
    """One registered analysis: how to compute it, how coarse a
    structural stamp guards it, and how to compare two results (the
    preservation-honesty property test recomputes and compares).
    ``needs`` names the managed analyses ``compute`` takes after the
    function, so the manager hands over its cached results instead of
    the analysis building private copies."""

    name: str
    compute: Callable[..., object]
    granularity: str
    same_result: Callable[[object, object], bool]
    needs: Tuple[str, ...] = ()


#: the closed registry of managed analyses
ANALYSES: Dict[str, AnalysisSpec] = {
    "liveness": AnalysisSpec(
        "liveness", LivenessInfo, GRANULARITY_BODY, _same_liveness
    ),
    "domtree": AnalysisSpec(
        "domtree", DominatorTree, GRANULARITY_CFG, _same_domtree
    ),
    "loops": AnalysisSpec(
        "loops", LoopInfo, GRANULARITY_CFG, _same_loops, needs=("domtree",)
    ),
    "escape": AnalysisSpec(
        "escape", EscapeInfo, GRANULARITY_BODY, _same_escape
    ),
    "ranges": AnalysisSpec(
        "ranges", RangeFacts, GRANULARITY_BODY, _same_ranges,
        needs=("domtree",)
    ),
}


def analysis_stamp(func: Function, granularity: str = GRANULARITY_BODY
                   ) -> Tuple[int, ...]:
    """Structural fingerprint guarding a cached entry (or compiled code:
    the JIT cache checks the same body-level stamp)."""
    blocks, insts = func.code_shape()
    if granularity == GRANULARITY_CFG:
        return (blocks,)
    return (blocks, insts)


class PreservedAnalyses:
    """The set of analyses a transform pass left valid.

    Every managed pass returns one; :meth:`AnalysisManager.invalidate`
    keeps the named entries cached (re-keyed to the bumped version) and
    drops the rest.  ``all()`` means the pass changed nothing — no
    invalidation, no version bump.
    """

    __slots__ = ("_all", "_names")

    def __init__(self, names: FrozenSet[str] = frozenset(),
                 preserve_all: bool = False):
        self._all = preserve_all
        self._names = frozenset(names)

    @classmethod
    def all(cls) -> "PreservedAnalyses":
        """The IR was not modified: everything stays valid."""
        return _PRESERVED_ALL

    @classmethod
    def none(cls) -> "PreservedAnalyses":
        """The pass gives no guarantees: drop every cached result."""
        return _PRESERVED_NONE

    @classmethod
    def preserve(cls, *names: str) -> "PreservedAnalyses":
        unknown = [n for n in names if n not in ANALYSES]
        if unknown:
            raise KeyError(f"unknown analyses: {unknown}")
        return cls(frozenset(names))

    @classmethod
    def cfg_only(cls) -> "PreservedAnalyses":
        """Instructions changed but the CFG did not: every CFG-level
        analysis survives (the common case for instruction rewrites)."""
        return cls(frozenset(
            name for name, spec in ANALYSES.items()
            if spec.granularity == GRANULARITY_CFG
        ))

    @property
    def preserves_all(self) -> bool:
        return self._all

    def preserves(self, name: str) -> bool:
        return self._all or name in self._names

    def preserved_names(self) -> FrozenSet[str]:
        if self._all:
            return frozenset(ANALYSES)
        return self._names

    def __repr__(self) -> str:  # pragma: no cover
        if self._all:
            return "PreservedAnalyses.all()"
        if not self._names:
            return "PreservedAnalyses.none()"
        return f"PreservedAnalyses.preserve({', '.join(sorted(self._names))})"


_PRESERVED_ALL = PreservedAnalyses(preserve_all=True)
_PRESERVED_NONE = PreservedAnalyses()


class _Cell:
    """Cached results for one function at one code version.

    Holds a strong reference to the function: cells are keyed by
    ``id(func)``, and the reference guarantees the id is not reused
    while the cell is alive.  The manager's LRU cap bounds how many
    functions are kept.
    """

    __slots__ = ("func", "version", "results")

    def __init__(self, func: Function):
        self.func = func
        self.version = func.code_version
        #: analysis name -> (stamp, result)
        self.results: Dict[str, Tuple[Tuple[int, ...], object]] = {}


class AnalysisManager:
    """Lazily computes and caches analysis results per function version."""

    def __init__(self, telemetry=None, max_functions: int = 256):
        #: attached telemetry; ``None`` resolves the ambient sink per
        #: emission so a ``repro.obs.trace`` block is picked up live
        self.telemetry = telemetry
        self.max_functions = max_functions
        self._cells: "OrderedDict[int, _Cell]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: reentrant so invalidate() can be called from a context that
        #: already holds the lock (e.g. a pass pipeline under an engine
        #: lock that also queries analyses)
        self._lock = threading.RLock()

    # -- telemetry ---------------------------------------------------------------

    def _tel(self):
        return (self.telemetry if self.telemetry is not None
                else ambient_telemetry())

    # -- queries -----------------------------------------------------------------

    def get(self, name: str, func: Function, _asked: bool = True):
        """The ``name`` analysis of ``func``, cached per code version.
        Hits and misses count what consumers asked for; the manager's own
        fetch of an analysis another one needs passes ``_asked=False``."""
        spec = ANALYSES[name]
        with self._lock:
            cell = self._cells.get(id(func))
            if cell is not None and cell.func is func:
                if cell.version != func.code_version:
                    # stale version: the single-version cell is replaced
                    cell.version = func.code_version
                    cell.results.clear()
                else:
                    entry = cell.results.get(name)
                    if (entry is not None
                            and entry[0] == analysis_stamp(
                                func, spec.granularity)):
                        if _asked:
                            self.hits += 1
                            self._tel().event(
                                EV.ANALYSIS_CACHE_HIT,
                                function=func.name, analysis=name)
                        self._cells.move_to_end(id(func))
                        return entry[1]
            if _asked:
                self.misses += 1
                self._tel().event(EV.ANALYSIS_CACHE_MISS,
                                  function=func.name, analysis=name,
                                  code_version=func.code_version)
            result = self._compute(spec, func)
            # computing a needed analysis may have made the cell meanwhile
            cell = self._cells.get(id(func))
            if cell is None or cell.func is not func:
                cell = _Cell(func)
                self._cells[id(func)] = cell
            cell.results[name] = (
                analysis_stamp(func, spec.granularity), result
            )
            self._cells.move_to_end(id(func))
            while len(self._cells) > self.max_functions:
                self._cells.popitem(last=False)
            return result

    def _compute(self, spec: AnalysisSpec, func: Function):
        return spec.compute(
            func, *(self.get(name, func, False) for name in spec.needs))

    def liveness(self, func: Function) -> LivenessInfo:
        return self.get("liveness", func)

    def dominator_tree(self, func: Function) -> DominatorTree:
        return self.get("domtree", func)

    def loop_info(self, func: Function) -> LoopInfo:
        return self.get("loops", func)

    def escape_info(self, func: Function) -> EscapeInfo:
        return self.get("escape", func)

    def range_facts(self, func: Function) -> RangeFacts:
        return self.get("ranges", func)

    def cached(self, name: str, func: Function):
        """Peek: the cached result for the *current* version, or None.
        Never computes and never counts as a hit or miss."""
        with self._lock:
            cell = self._cells.get(id(func))
            if cell is None or cell.func is not func:
                return None
            if cell.version != func.code_version:
                return None
            entry = cell.results.get(name)
            if entry is None:
                return None
            if entry[0] != analysis_stamp(func, ANALYSES[name].granularity):
                return None
            return entry[1]

    # -- invalidation ------------------------------------------------------------

    def invalidate(self, func: Function,
                   preserved: Optional[PreservedAnalyses] = None) -> int:
        """The function's body was rewritten: bump its ``code_version``
        and drop cached analyses not named in ``preserved``.

        Preserved entries are migrated to the new version key (their
        structural stamp refreshed against the rewritten body), so e.g.
        DCE keeps the dominator tree hot while liveness is recomputed.
        Returns the new code version.

        ``invalidate(func, PreservedAnalyses.all())`` still bumps the
        version — callers decide whether an unchanged body needs one by
        not calling invalidate at all (see ``PassManager.run``).
        """
        with self._lock:
            old_version = func.code_version
            new_version = func.bump_code_version()
            self.invalidations += 1
            kept = 0
            cell = self._cells.get(id(func))
            if cell is not None and cell.func is func:
                migrated: Dict[str, Tuple[Tuple[int, ...], object]] = {}
                if preserved is not None and cell.version == old_version:
                    for name, (stamp, result) in cell.results.items():
                        if preserved.preserves(name):
                            spec = ANALYSES[name]
                            migrated[name] = (
                                analysis_stamp(func, spec.granularity), result
                            )
                if migrated:
                    cell.version = new_version
                    cell.results = migrated
                    kept = len(migrated)
                else:
                    del self._cells[id(func)]
            self._tel().event(EV.ANALYSIS_INVALIDATE, function=func.name,
                              code_version=new_version, preserved=kept)
            return new_version

    def forget(self, func: Function) -> None:
        """Drop every cached result for ``func`` without touching its
        code version (e.g. the function is being discarded)."""
        with self._lock:
            self._cells.pop(id(func), None)

    def clear(self) -> None:
        with self._lock:
            self._cells.clear()

    # -- statistics --------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Cache counters, the shape ``stats_snapshot()["analysis"]``
        exposes.  ``hits``/``misses`` mirror the ``analysis.cache_hit``
        / ``analysis.cache_miss`` telemetry counters one-for-one."""
        with self._lock:
            queries = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "hit_rate": (self.hits / queries) if queries else 0.0,
                "functions": len(self._cells),
                "entries": sum(len(c.results) for c in self._cells.values()),
            }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<AnalysisManager hits={self.hits} misses={self.misses} "
                f"functions={len(self._cells)}>")


_default_manager: Optional[AnalysisManager] = None


def default_manager() -> AnalysisManager:
    """The process-wide manager engines and module-level helpers share
    when no explicit manager is threaded through."""
    global _default_manager
    if _default_manager is None:
        _default_manager = AnalysisManager()
    return _default_manager


def resolve_manager(am: Optional[AnalysisManager]) -> AnalysisManager:
    """``am`` if given, else the process-wide default — the idiom every
    ``am=None`` convenience parameter resolves through."""
    return am if am is not None else default_manager()
