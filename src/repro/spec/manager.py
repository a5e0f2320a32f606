"""The speculation manager: policy above the deopt machinery.

Owns the per-baseline speculation state for one engine: which specialized
versions exist, which one is *active* (published at the call boundary),
how many respecializations have been spent, and whether the function has
been pinned to baseline by the thrash limit.

The manager stores no compiled code.  What calls of a baseline reach is
the one thing in the engine's :class:`~repro.vm.background.PublishBox`
for it: the promotion publishes the JIT'd code behind
:meth:`SpeculationManager.on_promote`'s argument-feedback stage, and
every later decision here — activate a version, re-point at a sibling,
pin — is an ``engine.republish`` over that.

Policy, per the Deoptless playbook:

* after tier-up, a function whose argument feedback is monomorphic gets
  a guarded specialization (``spec.specialize``);
* a guard failure whose observed value matches a *sibling* version
  dispatches there (``spec.dispatch``), and a persistent streak of such
  failures re-points the call boundary at that sibling;
* a streak of failures with a *new* stable value earns a fresh
  specialization (``spec.respecialize``) — until the thrash limit, after
  which the function is pinned to baseline (``spec.pinned``) and
  speculation stops burning compile time on it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..ir.function import Function
from ..obs import events as EV
from ..vm.jit import compile_function
from .deopt import DeoptManager
from .speculate import SpeculationError, SpecializedVersion, specialize_function

#: consecutive same-value failures before the dispatcher re-points or a
#: new specialization is built
DEFAULT_STREAK_THRESHOLD = 2

#: respecializations of one baseline before it is pinned to baseline
DEFAULT_THRASH_LIMIT = 3


class SpecState:
    """Speculation bookkeeping for one baseline function."""

    __slots__ = ("baseline", "versions", "active_version",
                 "pinned", "respec_count", "last_observed", "streak")

    def __init__(self, baseline: Function):
        self.baseline = baseline
        #: (arg_index, value) -> version
        self.versions: Dict[Tuple[int, object], SpecializedVersion] = {}
        #: the version whose code is published at the call boundary, or
        #: None while calls reach the baseline's own code
        self.active_version: Optional[SpecializedVersion] = None
        self.pinned = False
        self.respec_count = 0
        self.last_observed: Optional[Tuple[int, object]] = None
        self.streak = 0


class SpeculationManager:
    """Creates, dispatches among, and retires specialized versions."""

    def __init__(self, engine, deopt: DeoptManager,
                 thrash_limit: int = DEFAULT_THRASH_LIMIT,
                 streak_threshold: int = DEFAULT_STREAK_THRESHOLD,
                 min_samples: int = 4, min_ratio: float = 0.95):
        self.engine = engine
        self.deopt = deopt
        deopt.spec_manager = self
        self.thrash_limit = thrash_limit
        self.streak_threshold = streak_threshold
        self.min_samples = min_samples
        self.min_ratio = min_ratio
        self._states: Dict[str, SpecState] = {}

    def state_for(self, func: Function) -> SpecState:
        state = self._states.get(func.name)
        if state is None:
            state = SpecState(func)
            self._states[func.name] = state
        return state

    # -- creating versions -----------------------------------------------------

    def on_promote(self, func: Function, compiled: Callable) -> Callable:
        """The stage a promotion publishes for a speculating function:
        ``compiled`` behind argument feedback.  Each call records its
        arguments in the caller's profile; once a slot is monomorphic
        the guarded specialization is published over this stage and the
        call continues there."""
        resolve = self.engine.profiler.profile_for
        name = func.name

        def feedback(*args):
            profile = resolve(name)
            profile.record_args(args)
            specialized = self.maybe_specialize(func, profile)
            if specialized is not None:
                return specialized(*args)
            return compiled(*args)

        return feedback

    def maybe_specialize(self, func: Function, profile
                         ) -> Optional[Callable]:
        """Specialize ``func`` if its argument feedback is monomorphic.

        Called by the feedback stage of a promoted function; a no-op
        while pinned, already speculating, or while the feedback is
        still polymorphic.  Returns the specialization's compiled code
        when this call published one."""
        state = self.state_for(func)
        if state.pinned or state.active_version is not None:
            return None
        stable = profile.stable_argument(self.min_samples, self.min_ratio)
        if stable is None:
            return None
        arg_index, value = stable
        key = (arg_index, value)
        version = state.versions.get(key)
        if version is None:
            version = self._build_version(state, arg_index, value)
            if version is None:
                return None
        return self._activate(state, version)

    def _build_version(self, state: SpecState, arg_index: int, value
                       ) -> Optional[SpecializedVersion]:
        engine = self.engine
        try:
            version = specialize_function(
                state.baseline, arg_index, value,
                module=engine.module, telemetry=engine.telemetry,
                am=engine.analysis,
            )
        except SpeculationError:
            return None
        state.versions[(arg_index, value)] = version
        self.deopt.register_version(version)
        # rewriting the baseline must cascade to every version guarding it
        engine.add_invalidation_dependency(state.baseline, version.function)
        return version

    def _activate(self, state: SpecState, version: SpecializedVersion
                  ) -> Optional[Callable]:
        """Publish ``version``'s code at the baseline's call boundary.
        None, and nothing changes, when the baseline has no published
        code to go above (an invalidation swept it)."""
        compiled = compile_function(version.function, self.engine)
        if not self.engine.republish(state.baseline, compiled):
            return None
        state.active_version = version
        return compiled

    def refresh_active(self, version: SpecializedVersion) -> None:
        """Re-materialize the published code after the version's body
        changed (e.g. a guard was armed for forced failure)."""
        state = self._states.get(version.baseline.name)
        if state is not None and state.active_version is version:
            self._activate(state, version)

    # -- failure policy ---------------------------------------------------------

    def note_guard_failure(self, owner: SpecializedVersion, guard_id: str,
                           observed) -> Optional[SpecializedVersion]:
        """Record a guard failure; returns a sibling version to dispatch
        the exit into, or None to resume the baseline."""
        state = self._states.get(owner.baseline.name)
        if state is None or state.pinned:
            return None
        if type(observed) not in (int, float):
            return None
        key = (owner.arg_index, observed)
        if state.last_observed == key:
            state.streak += 1
        else:
            state.last_observed = key
            state.streak = 1

        sibling = state.versions.get(key)
        if sibling is not None and sibling is not owner:
            # known profile: dispatch there; a persistent streak also
            # re-points the call boundary
            if (state.streak >= self.streak_threshold
                    and state.active_version is not sibling):
                self._activate(state, sibling)
            return sibling

        if sibling is None and state.streak >= self.streak_threshold:
            # new stable profile: earn another specialized continuation —
            # unless the thrash limit says this function churns profiles
            # faster than speculation pays off
            if state.respec_count >= self.thrash_limit:
                self._pin(state)
                return None
            state.respec_count += 1
            self.engine.telemetry.event(
                EV.SPEC_RESPECIALIZE, function=state.baseline.name,
                arg_index=owner.arg_index, observed=repr(observed),
                respec_count=state.respec_count)
            version = self._build_version(state, owner.arg_index, observed)
            if version is not None:
                self._activate(state, version)
                state.streak = 0
                return version
        return None

    def _pin(self, state: SpecState) -> None:
        """Stop speculating on this baseline: its own compiled code goes
        back to the call boundary, with no feedback stage in front."""
        state.pinned = True
        state.active_version = None
        self.engine.republish(
            state.baseline, compile_function(state.baseline, self.engine))
        self.engine.telemetry.event(
            EV.SPEC_PINNED, function=state.baseline.name,
            respec_count=state.respec_count)

    # -- invalidation -----------------------------------------------------------

    def on_invalidate(self, func: Function) -> None:
        """The baseline's body was rewritten: every version speculated
        from it is stale.  Drop them (frames, the active version; the
        engine's invalidation cascade already retired their code, the
        box it was published in and every continuation landing in or
        exiting from them); feedback restarts from scratch."""
        state = self._states.get(func.name)
        if state is None:
            return
        for version in state.versions.values():
            self.deopt.forget_version(version)
        state.versions.clear()
        state.active_version = None
        state.last_observed = None
        state.streak = 0

    def stats(self) -> Dict[str, Dict[str, object]]:
        return {
            name: {
                "versions": len(state.versions),
                "active": (state.active_version.function.name
                           if state.active_version is not None else None),
                "pinned": state.pinned,
                "respec_count": state.respec_count,
            }
            for name, state in self._states.items()
        }
