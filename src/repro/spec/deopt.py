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

Continuations are generated once per (guard, target) and cached; a warm
deopt is a cache lookup plus one call.  Guards can also be *armed* to
fail on a chosen hit count (:meth:`DeoptManager.force_failure`), which
the differential tests use to inject deopts at arbitrary points.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from ..core.autostate import AutoStateError, derive_state_mapping
from ..core.continuation import OSRError, generate_continuation
from ..ir.function import Function
from ..ir.instructions import GuardInst
from ..obs import events as EV
from ..obs.telemetry import ambient as ambient_telemetry
from ..vm.interpreter import Trap
from ..vm.jit import compile_function
from .speculate import FrameState, SpecializedVersion


class DeoptError(Exception):
    """Raised when a deopt exit cannot be carried out."""


class DeoptManager:
    """Per-engine deopt coordinator: frame states, continuations, forcing."""

    def __init__(self, engine, telemetry=None):
        self.engine = engine
        self.telemetry = (telemetry if telemetry is not None
                          else engine.telemetry)
        #: guard id -> frame state
        self._frames: Dict[str, FrameState] = {}
        #: guard id -> owning specialized version
        self._owners: Dict[str, SpecializedVersion] = {}
        #: (guard id, target function name) -> compiled continuation
        self._continuations: Dict[tuple, Callable] = {}
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
            self._continuations = {
                key: cont for key, cont in self._continuations.items()
                if key[0] != guard_id
            }

    def frame_for(self, guard_id: str) -> Optional[FrameState]:
        return self._frames.get(guard_id)

    # -- forced failures -------------------------------------------------------

    def force_failure(self, guard_id: str, at_hit: int = 1) -> None:
        """Arm ``guard_id`` to fail on its ``at_hit``-th execution (and
        every one after), even while its semantic condition holds.

        Arming sets the guard instruction's ``forced`` flag and drops the
        owner's compiled form, so the next materialization lowers the
        force check into the guard — unarmed guards never pay for it.
        """
        if guard_id not in self._frames:
            raise DeoptError(f"unknown guard {guard_id!r}")
        if at_hit < 1:
            raise DeoptError("at_hit must be >= 1")
        self._forced[guard_id] = {"at": at_hit, "hits": 0}
        owner = self._owners.get(guard_id)
        if owner is not None:
            armed = False
            for block in owner.function.blocks:
                for inst in block.instructions:
                    if isinstance(inst, GuardInst) and inst.guard_id == guard_id:
                        if not inst.forced:
                            inst.forced = True
                            armed = True
            if armed:
                owner.function.bump_code_version()
                self.engine._compiled.pop(owner.function.name, None)
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
        continuation generation or cache lookup) — folds into the
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
        owner = self._owners.get(guard_id)
        target: Optional[SpecializedVersion] = None
        if self.spec_manager is not None and owner is not None:
            target = self.spec_manager.note_guard_failure(
                owner, guard_id, observed
            )
        if target is not None and target is not owner:
            continuation = self._dispatch_continuation(guard_id, frame, target)
            if continuation is not None:
                tel.event(EV.SPEC_DISPATCH, guard=guard_id,
                          target=target.function.name,
                          observed=repr(observed))
                tel.event(EV.DEOPT_EXIT, guard=guard_id,
                          target=target.function.name, mode="dispatch")
                metrics.record_time(EV.DEOPT_TRANSITION,
                                    time.perf_counter() - transition_start)
                return continuation(*lives)

        continuation = self._baseline_continuation(guard_id, frame)
        tel.event(EV.DEOPT_EXIT, guard=guard_id,
                  target=frame.baseline.name, mode="baseline")
        metrics.record_time(EV.DEOPT_TRANSITION,
                            time.perf_counter() - transition_start)
        return continuation(*lives)

    def external_exit(self, key: tuple, build: Callable, *,
                      guard: str, function: str):
        """Deopt-exit for guard mechanisms living outside the speculation
        pass (e.g. McVM's feval handle guard): count the failure, emit
        the ``deopt.*`` events, and return the continuation produced by
        ``build()`` — cached under ``key`` so repeated failures at the
        same site pay only a lookup."""
        self.deopt_count += 1
        tel = self.telemetry
        tel.event(EV.DEOPT_GUARD_FAIL, guard=guard, function=function)
        cached = self._continuations.get(key)
        if cached is None:
            cached = build()
            self._continuations[key] = cached
        tel.event(EV.DEOPT_EXIT, guard=guard, target=function,
                  mode="external")
        return cached

    # -- continuation construction ---------------------------------------------

    def _baseline_continuation(self, guard_id: str,
                               frame: FrameState) -> Callable:
        """Continuation resuming the unspecialized baseline at the
        guard's landing block (identity state mapping — the captured
        operands ARE the baseline live set)."""
        key = (guard_id, frame.baseline.name)
        cached = self._continuations.get(key)
        if cached is not None:
            return cached
        tel = self.telemetry
        with tel.span(EV.DEOPT_CONTINUATION, guard=guard_id,
                      target=frame.baseline.name,
                      live=len(frame.live_values)):
            cont = generate_continuation(
                frame.baseline, frame.landing, frame.live_values,
                {v: i for i, v in enumerate(frame.live_values)},
                name=f"{frame.baseline.name}.deopt",
                module=frame.baseline.module, telemetry=tel,
                am=self.engine.analysis,
            )
        cont.attributes["deopt.guard"] = guard_id
        compiled = compile_function(cont, self.engine)
        self._continuations[key] = compiled
        return compiled

    def _dispatch_continuation(self, guard_id: str, frame: FrameState,
                               target: SpecializedVersion
                               ) -> Optional[Callable]:
        """Specialized continuation entering ``target`` mid-flight, or
        None when the mapping cannot be derived (landing folded away,
        value provenance lost) — the caller then falls back to the
        baseline continuation."""
        key = (guard_id, target.function.name)
        cached = self._continuations.get(key)
        if cached is not None:
            return cached
        landing = target.vmap.get(frame.landing)
        if landing is None or landing.parent is not target.function:
            return None
        tel = self.telemetry
        am = self.engine.analysis
        try:
            mapping = derive_state_mapping(
                frame.live_values, target.vmap, target.function, landing, am
            )
            with tel.span(EV.DEOPT_CONTINUATION, guard=guard_id,
                          target=target.function.name):
                cont = generate_continuation(
                    target.function, landing, frame.live_values, mapping,
                    name=f"{target.function.name}.cont",
                    module=target.function.module, telemetry=tel, am=am,
                    landing_state=list(mapping),
                )
        except (AutoStateError, OSRError):
            return None
        cont.attributes["deopt.guard"] = guard_id
        compiled = compile_function(cont, self.engine)
        self._continuations[key] = compiled
        return compiled

    # -- invalidation ----------------------------------------------------------

    def invalidate_function(self, func: Function) -> None:
        """Drop cached continuations targeting ``func`` (its body or its
        baseline was rewritten)."""
        self._continuations = {
            key: cont for key, cont in self._continuations.items()
            if key[1] != func.name
        }
