"""The deopt manager: OSR-exit from speculative code.

When a guard fails, lowered code (or the interpreter) calls
``engine.deopt_exit(guard_id, lives)``, which lands here.  The manager:

1. looks up the guard's :class:`~repro.spec.speculate.FrameState`;
2. asks the speculation manager whether the failure should *dispatch* to
   a sibling specialization (Deoptless-style: the observed value matches
   another version's speculation, or a new stable profile earned a fresh
   one) — if so, the exit continues in a *specialized continuation* of
   that sibling, with the state mapping derived automatically through
   the sibling's clone map (:mod:`repro.core.autostate`);
3. otherwise resumes the *baseline* mid-flight through a continuation
   generated with the identity mapping — execution picks up at the
   guard's landing block with the captured live state, never restarting
   the function from its entry.

Continuations live in the engine's one continuation store
(:meth:`~repro.vm.engine.ExecutionEngine.continuation`), keyed by
(guard, target) and dependent on the landing function and the guard's
owner: generated once, a warm deopt is a store lookup plus one call, and
``engine.invalidate()`` of either function retires them.  Guards can
also be *armed* to fail on a chosen hit count
(:meth:`DeoptManager.force_failure`), which the differential tests use
to inject deopts at arbitrary points.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from ..core.autostate import AutoStateError, derive_state_mapping
from ..core.continuation import OSRError, generate_continuation
from ..ir.function import Function
from ..ir.instructions import GuardInst
from ..obs import events as EV
from ..vm.interpreter import Trap
from ..vm.jit import compile_function
from .speculate import FrameState, SpecializedVersion


class DeoptError(Exception):
    """Raised when a deopt exit cannot be carried out."""


class DeoptManager:
    """Per-engine deopt coordinator: frame states, exits, forcing."""

    def __init__(self, engine, telemetry=None):
        self.engine = engine
        self.telemetry = (telemetry if telemetry is not None
                          else engine.telemetry)
        #: guard id -> frame state
        self._frames: Dict[str, FrameState] = {}
        #: guard id -> owning specialized version
        self._owners: Dict[str, SpecializedVersion] = {}
        #: guard id -> {"at": hit index to fail on, "hits": observed so far}
        self._forced: Dict[str, Dict[str, int]] = {}
        #: wired by the SpeculationManager
        self.spec_manager = None
        #: total deopt exits taken (cheap census for benchmarks)
        self.deopt_count = 0

    # -- registration ---------------------------------------------------------

    def register_version(self, version: SpecializedVersion) -> None:
        for guard_id, frame in version.guards.items():
            self._frames[guard_id] = frame
            self._owners[guard_id] = version

    def forget_version(self, version: SpecializedVersion) -> None:
        for guard_id in version.guards:
            self._frames.pop(guard_id, None)
            self._owners.pop(guard_id, None)
            self._forced.pop(guard_id, None)

    # -- forced failures -------------------------------------------------------

    def force_failure(self, guard_id: str, at_hit: int = 1) -> None:
        """Arm ``guard_id`` to fail on its ``at_hit``-th execution (and
        every one after), even while its semantic condition holds.

        Arming sets the guard instruction's ``forced`` flag and
        invalidates the owner, so its next materialization (and every
        continuation landing in it) lowers the force check into the
        guard — unarmed guards never pay for it.
        """
        if guard_id not in self._frames:
            raise DeoptError(f"unknown guard {guard_id!r}")
        if at_hit < 1:
            raise DeoptError("at_hit must be >= 1")
        self._forced[guard_id] = {"at": at_hit, "hits": 0}
        owner = self._owners[guard_id]
        unarmed = [inst for block in owner.function.blocks
                   for inst in block.instructions
                   if isinstance(inst, GuardInst)
                   and inst.guard_id == guard_id and not inst.forced]
        for inst in unarmed:
            inst.forced = True
        if unarmed:
            self.engine.invalidate(owner.function)
            if self.spec_manager is not None:
                self.spec_manager.refresh_active(owner)

    def should_force(self, guard_id: str) -> bool:
        """Hit-count check consulted by armed guards (fast path: guards
        that were never armed do not call this at all)."""
        state = self._forced.get(guard_id)
        if state is None:
            return False
        state["hits"] += 1
        return state["hits"] >= state["at"]

    # -- the exit path ---------------------------------------------------------

    def entry(self, guard_id: str, lives: List) -> object:
        """Perform the OSR-exit for a failed guard; returns the final
        return value of the resumed execution.

        The *transition cost* — everything between the guard failing
        and the continuation being ready to run (policy consultation,
        continuation generation or store lookup) — folds into the
        histogram-backed ``deopt.transition`` timer, so warm/cold deopt
        tails are visible as ``p50`` vs ``p99``.
        """
        transition_start = time.perf_counter()
        frame = self._frames.get(guard_id)
        if frame is None:
            raise Trap(f"deopt exit for unknown guard {guard_id!r}")
        self.deopt_count += 1
        tel = self.telemetry
        metrics = tel.metrics
        tel.event(EV.DEOPT_GUARD_FAIL, guard=guard_id,
                  function=frame.baseline.name)
        # the deopt-recipe width actually transferred on this exit
        metrics.gauge(EV.OSR_LIVE_SLOTS, len(lives))

        observed = lives[-1] if lives else None
        owner = self._owners[guard_id]
        target: Optional[SpecializedVersion] = None
        if self.spec_manager is not None:
            target = self.spec_manager.note_guard_failure(
                owner, guard_id, observed
            )
        continuation = None
        if target is not None and target is not owner:
            continuation = self._dispatch_continuation(guard_id, frame,
                                                       owner, target)
        if continuation is not None:
            landed, mode = target.function.name, "dispatch"
            tel.event(EV.SPEC_DISPATCH, guard=guard_id, target=landed,
                      observed=repr(observed))
        else:
            continuation = self._baseline_continuation(guard_id, frame, owner)
            landed, mode = frame.baseline.name, "baseline"
        tel.event(EV.DEOPT_EXIT, guard=guard_id, target=landed, mode=mode)
        metrics.record_time(EV.DEOPT_TRANSITION,
                            time.perf_counter() - transition_start)
        return continuation(*lives)

    # -- continuation construction ---------------------------------------------

    def _stored(self, guard_id: str, owner: SpecializedVersion,
                target: Function, generate: Callable) -> Callable:
        """The continuation of ``guard_id`` landing in ``target``, from
        the engine's store: ``generate()`` cuts its IR on a miss."""
        def build():
            cont = generate()
            cont.attributes["deopt.guard"] = guard_id
            return compile_function(cont, self.engine)

        return self.engine.continuation(
            (guard_id, target.name), (target, owner.function), build)

    def _baseline_continuation(self, guard_id: str, frame: FrameState,
                               owner: SpecializedVersion) -> Callable:
        """Continuation resuming the unspecialized baseline at the
        guard's landing block (identity state mapping — the captured
        operands ARE the baseline live set)."""
        tel = self.telemetry

        def generate():
            with tel.span(EV.DEOPT_CONTINUATION, guard=guard_id,
                          target=frame.baseline.name,
                          live=len(frame.live_values)):
                return generate_continuation(
                    frame.baseline, frame.landing, frame.live_values,
                    {v: i for i, v in enumerate(frame.live_values)},
                    name=f"{frame.baseline.name}.deopt",
                    module=frame.baseline.module, telemetry=tel,
                    am=self.engine.analysis,
                )

        return self._stored(guard_id, owner, frame.baseline, generate)

    def _dispatch_continuation(self, guard_id: str, frame: FrameState,
                               owner: SpecializedVersion,
                               target: SpecializedVersion
                               ) -> Optional[Callable]:
        """Specialized continuation entering ``target`` mid-flight, or
        None when the mapping cannot be derived (landing folded away,
        value provenance lost) — the caller then falls back to the
        baseline continuation."""
        landing = target.vmap.get(frame.landing)
        if landing is None or landing.parent is not target.function:
            return None
        tel = self.telemetry
        am = self.engine.analysis

        def generate():
            mapping = derive_state_mapping(
                frame.live_values, target.vmap, target.function, landing, am
            )
            with tel.span(EV.DEOPT_CONTINUATION, guard=guard_id,
                          target=target.function.name):
                return generate_continuation(
                    target.function, landing, frame.live_values, mapping,
                    name=f"{target.function.name}.cont",
                    module=target.function.module, telemetry=tel, am=am,
                    landing_state=list(mapping),
                )

        try:
            return self._stored(guard_id, owner, target.function, generate)
        except (AutoStateError, OSRError):
            return None
