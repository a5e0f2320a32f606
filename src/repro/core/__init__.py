"""repro.core — OSRKit: flexible on-stack replacement at IR level.

The paper's primary contribution, reproduced over :mod:`repro.ir` and
:mod:`repro.vm`:

* **resolved OSR** (:func:`insert_resolved_osr_point`) — transfer to a
  continuation built ahead of time from a known variant (Figure 2);
* **open OSR** (:func:`insert_open_osr_point`) — transfer through a stub
  that invokes a code generator at run time (Figures 3 and 6);
* **state mappings with compensation code** (:class:`StateMapping`,
  :class:`Computed`) — fire OSR at arbitrary locations even when the
  source and target states do not align;
* **continuation generation** (:func:`generate_continuation`) — dedicated
  OSR entry, phi fixing, dead old-entry elision (Figure 7);
* **one insertion mechanism** (:func:`open_osr_point` /
  :func:`emit_osr_check` / :func:`close_osr_point`) — capture and split,
  the check, and the epilogue every flavour shares; a flavour only fills
  the ``osr`` block;
* **multi-version management** (:class:`MultiVersionManager`) — chains
  ``f -> f' -> f''`` and deoptimization edges;
* **McOSR baseline** (:func:`insert_mcosr_point`) — the pool-of-globals
  design OSRKit improves upon, kept for ``repro.experiments.ablation``.
"""

from .conditions import (
    AlwaysCondition,
    GuardCondition,
    HotCounterCondition,
    NeverCondition,
    OSRCondition,
)
from .continuation import (
    OSRError,
    generate_continuation,
    required_landing_state,
)
from .autostate import AutoStateError, derive_state_mapping
from .instrument import (
    OpenOSR,
    OSRSite,
    ResolvedOSR,
    build_open_osr_stub,
    close_osr_point,
    emit_osr_check,
    insert_open_osr_point,
    insert_resolved_osr_point,
    open_osr_point,
    remove_osr_point,
    split_block_at,
)
from .mcosr import McOSRPoint, insert_mcosr_point
from .multiversion import FunctionVersion, MultiVersionManager
from .statemap import Computed, FromConstant, FromParam, StateMapping, ValueSource

__all__ = [
    "OSRCondition",
    "HotCounterCondition",
    "AlwaysCondition",
    "NeverCondition",
    "GuardCondition",
    "OSRError",
    "generate_continuation",
    "required_landing_state",
    "insert_resolved_osr_point",
    "remove_osr_point",
    "derive_state_mapping",
    "AutoStateError",
    "insert_open_osr_point",
    "build_open_osr_stub",
    "split_block_at",
    "open_osr_point",
    "emit_osr_check",
    "close_osr_point",
    "OSRSite",
    "ResolvedOSR",
    "OpenOSR",
    "StateMapping",
    "ValueSource",
    "FromParam",
    "FromConstant",
    "Computed",
    "MultiVersionManager",
    "FunctionVersion",
    "McOSRPoint",
    "insert_mcosr_point",
]
