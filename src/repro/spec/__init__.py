"""repro.spec — speculation above the OSR kit.

The speculation pass clones a function under a profile-driven value
assumption and checks it once, at the clone's entry
(:mod:`repro.spec.speculate`).  A miss of that check is an ordinary call
into the speculation policy (:mod:`repro.spec.manager`), which calls
code that is already compiled: the baseline's plain code, a sibling
version, or a fresh specialization, bounded by a thrash limit that pins
the function to its plain code — the Deoptless design of dispatching on
a bounded set of observed values at the call boundary.  The paper's
mid-flight exit lives where a value *can* change mid-loop: feval's
guard-fail continuation (:mod:`repro.mcvm.feval`).
"""

from .manager import (
    DEFAULT_STREAK_THRESHOLD,
    DEFAULT_THRASH_LIMIT,
    SpecState,
    SpeculationManager,
)
from .speculate import (
    SpecializedVersion,
    SpeculationError,
    specialize_function,
)

__all__ = [
    "SpecState",
    "SpeculationManager",
    "SpecializedVersion",
    "SpeculationError",
    "specialize_function",
    "DEFAULT_STREAK_THRESHOLD",
    "DEFAULT_THRASH_LIMIT",
]
