"""Profile-driven tier-up.

Lightweight per-function hotness counters that drive promotion from the
pre-decoded interpreter tier to the JIT tier — the classic mixed-mode VM
design the paper's OSR machinery assumes (HotSpot-style: interpret cold
code, compile hot code, OSR moves live frames between the two).

The counters are deliberately cheap: one call increment per invocation
(charged by the engine's tiered dispatcher) and one backedge increment per
loop iteration (charged by :meth:`DecodedFunction.run_counted`).  A
function is promoted when either counter crosses its threshold.

Counters are *race-tolerant* rather than locked: profiles are hints, not
ledgers.  Concurrent ``calls += 1`` from two threads may lose an
increment under the GIL's read-modify-write window — the only
consequence is a slightly later promotion.  Structure growth
(``record_args`` lazily appending feedback slots) is append-only, so a
racing over-append leaves harmless extra slots; nothing is ever torn.
The one operation that must not interleave with increments is
:meth:`demote`, which swaps whole fields (never mutates in place) so a
concurrent reader sees either the old or the reset profile.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: invocations before a function is considered call-hot
DEFAULT_CALL_THRESHOLD = 8

#: loop back edges before a function is considered loop-hot (this is what
#: catches "one call, hot loop" functions that OSR targets)
DEFAULT_BACKEDGE_THRESHOLD = 256


#: distinct scalar values one argument slot tells apart; one more makes
#: the slot megamorphic, and it records nothing from then on
MAX_DISTINCT_VALUES = 8


class ValueFeedback:
    """Observed-value histogram for one argument slot.

    Records scalar (int/float) runtime values and answers "is this slot
    monomorphic enough to speculate on?" — the type/value feedback that
    drives the speculation pass.  Non-scalar values (pointers, handles)
    are counted toward the total but never dominate, so speculation only
    ever folds immediates.  A slot holds at most
    :data:`MAX_DISTINCT_VALUES` values and keeps its most frequent one
    current as it records, so each call costs O(1) and the histogram
    stays bounded over an engine's life.
    """

    __slots__ = ("counts", "total", "best", "best_count")

    def __init__(self) -> None:
        #: value -> count; ``None`` once the slot is megamorphic
        self.counts: Optional[Dict[object, int]] = {}
        self.total = 0
        self.best: object = None
        self.best_count = 0

    def record(self, value: object) -> None:
        counts = self.counts
        if counts is None:
            return
        self.total += 1
        if type(value) in (int, float):
            count = counts.get(value, 0) + 1
            if count == 1 and len(counts) == MAX_DISTINCT_VALUES:
                self.counts = None  # megamorphic: nothing to speculate on
                return
            counts[value] = count
            if count > self.best_count:
                self.best, self.best_count = value, count

    def dominant(self) -> Optional[Tuple[object, int]]:
        """The most frequent scalar value and its count, or None."""
        if not self.best_count or self.counts is None:
            return None
        return self.best, self.best_count

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ValueFeedback total={self.total} {self.counts!r}>"


class FunctionProfile:
    """Hotness counters for one function under one engine."""

    __slots__ = ("name", "calls", "backedges", "promoted_version", "feedback",
                 "samples")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.backedges = 0
        #: code_version the function was promoted at, or None while it is
        #: still running in the decoded tier
        self.promoted_version: Optional[int] = None
        #: per-argument-slot value feedback, filled lazily on first record
        self.feedback: List[ValueFeedback] = []
        #: invocations recorded into ``feedback``
        self.samples = 0

    def record_args(self, args) -> None:
        """Feed one invocation's argument values into the histograms."""
        self.samples += 1
        feedback = self.feedback
        while len(feedback) < len(args):
            feedback.append(ValueFeedback())
        for slot, value in zip(feedback, args):
            slot.record(value)

    def stable_argument(
        self, min_samples: int = 4, min_ratio: float = 0.95
    ) -> Optional[Tuple[int, object]]:
        """The first argument slot whose observed values are monomorphic.

        Returns ``(arg_index, value)`` when some slot saw at least
        ``min_samples`` values of which a ``min_ratio`` fraction were one
        scalar constant — the speculation pass's trigger condition.
        """
        for index, slot in enumerate(self.feedback):
            if slot.total < min_samples:
                continue
            dom = slot.dominant()
            if dom is None:
                continue
            value, count = dom
            if count / slot.total >= min_ratio:
                return index, value
        return None

    @property
    def promoted(self) -> bool:
        return self.promoted_version is not None

    def demote(self) -> None:
        """Forget a promotion (the function body was rewritten).

        The profile object stays the one its dispatcher bound; its
        fields are *replaced*, not mutated in place, so a thread racing
        this reset observes a consistent before-or-after profile.
        """
        self.promoted_version = None
        self.calls = 0
        self.backedges = 0
        self.feedback = []
        self.samples = 0

    def __repr__(self) -> str:  # pragma: no cover
        state = (
            f"jit@v{self.promoted_version}" if self.promoted else "decoded"
        )
        return (
            f"<FunctionProfile @{self.name} calls={self.calls} "
            f"backedges={self.backedges} {state}>"
        )


class TierProfiler:
    """Owns the profiles and the promotion policy for one engine: one
    :class:`FunctionProfile` per function name, made on first lookup and
    never replaced, so a dispatcher can bind its function's profile once
    and keep it across invalidations (:meth:`invalidate` resets it in
    place)."""

    def __init__(self, call_threshold: int = DEFAULT_CALL_THRESHOLD,
                 backedge_threshold: int = DEFAULT_BACKEDGE_THRESHOLD):
        if call_threshold < 1 or backedge_threshold < 1:
            raise ValueError("tier-up thresholds must be >= 1")
        self.call_threshold = call_threshold
        self.backedge_threshold = backedge_threshold
        self._profiles: Dict[str, FunctionProfile] = {}

    def profile_for(self, name: str) -> FunctionProfile:
        profile = self._profiles.get(name)
        if profile is None:
            # setdefault is atomic under the GIL: two threads racing the
            # first lookup agree on one FunctionProfile instead of each
            # counting into a private loser copy
            profile = self._profiles.setdefault(name, FunctionProfile(name))
        return profile

    def should_promote(self, profile: FunctionProfile) -> bool:
        return (
            profile.calls >= self.call_threshold
            or profile.backedges >= self.backedge_threshold
        )

    def invalidate(self, name: str) -> None:
        """Reset counters after the function body was rewritten."""
        profile = self._profiles.get(name)
        if profile is not None:
            profile.demote()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Stats for tooling/benchmark reports."""
        return {
            name: {
                "calls": p.calls,
                "backedges": p.backedges,
                "promoted": p.promoted,
            }
            for name, p in self._profiles.items()
        }
