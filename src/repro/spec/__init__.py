"""repro.spec — speculation & deoptimization above the OSR kit.

Guarded fast paths: the speculation pass clones a function under
profile-driven value assumptions protected by ``guard`` instructions
(:mod:`repro.spec.speculate`); on guard failure the deopt manager
OSR-exits through the paper's continuation machinery, reconstructing the
baseline's live frame state mid-flight (:mod:`repro.spec.deopt`, from
each guard's :class:`FrameState`); repeated failures with new stable
profiles dispatch among additional specialized continuations, bounded by
a thrash limit (:mod:`repro.spec.manager`) — the Deoptless design built
on D'Elia & Demetrescu's OSR substrate.
"""

from .deopt import DeoptError, DeoptManager
from .manager import (
    DEFAULT_STREAK_THRESHOLD,
    DEFAULT_THRASH_LIMIT,
    SpecState,
    SpeculationManager,
)
from .speculate import (
    FrameState,
    SpecializedVersion,
    SpeculationError,
    specialize_function,
)

__all__ = [
    "DeoptError",
    "DeoptManager",
    "FrameState",
    "SpecState",
    "SpeculationManager",
    "SpecializedVersion",
    "SpeculationError",
    "specialize_function",
    "DEFAULT_STREAK_THRESHOLD",
    "DEFAULT_THRASH_LIMIT",
]
