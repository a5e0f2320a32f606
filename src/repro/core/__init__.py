"""repro.core — OSRKit: flexible on-stack replacement at IR level.

The paper's primary contribution, reproduced over :mod:`repro.ir` and
:mod:`repro.vm`:

* **resolved OSR** (:func:`insert_resolved_osr_point`) — transfer to a
  continuation built ahead of time from a known variant (Figure 2);
* **open OSR** (:func:`insert_open_osr_point`) — transfer through a stub
  that invokes a code generator at run time (Figures 3 and 6);
* **state mappings with compensation code** — a plain ``dict`` from each
  landing-live value to a transferred index or an emitter
  ``(builder, params) -> Value``; fire OSR at arbitrary locations even
  when the source and target states do not align, and
  (:func:`derive_state_mapping`) derive one through a clone's value map;
* **continuation generation** (:func:`generate_continuation`) — dedicated
  OSR entry, phi fixing, dead old-entry elision (Figure 7);
* **one insertion mechanism** (:func:`open_osr_point` /
  :func:`emit_osr_check` / :func:`close_osr_point`) — capture and split,
  the check, and the epilogue every flavour shares; a flavour only fills
  the ``osr`` block;
* **one landing join** (:func:`repro.core.continuation.join_landing`) —
  the second way into a landing block, shared by continuations and McOSR;
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
    "McOSRPoint",
    "insert_mcosr_point",
]
