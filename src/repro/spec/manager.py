"""The speculation manager: when to specialize, and where a miss goes.

Owns the per-baseline speculation state for one engine: the baseline's
plain compiled code, its specialized versions, the *active* one (what
the engine's :class:`~repro.vm.engine.PublishBox` for the baseline
holds), the respecializations spent, and the thrash limit's pin.  Every
decision is an ``engine.republish`` into that box.  Policy, per the
Deoptless playbook:

* the promotion publishes the JIT'd code behind a feedback stage, which
  decides once, at the first call whose profile holds ``min_samples``
  samples: a monomorphic argument gets a specialization
  (``spec.specialize``), anything else the plain code;
* a miss of a version's entry check calls that version's miss native
  (``deopt.guard_fail``, then one ``deopt.exit`` with ``mode="call"``),
  which calls already compiled code: the plain code, a sibling version
  whose value matches (``spec.dispatch``; a streak re-points the call
  boundary there), or a fresh specialization earned by a streak of a new
  value (``spec.respecialize``) — until the thrash limit pins the
  function to its plain code (``spec.pinned``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..ir.function import Function
from ..obs import events as EV
from ..vm.jit import compile_function
from .speculate import SpeculationError, SpecializedVersion, specialize_function

#: consecutive same-value misses before the call boundary is re-pointed
#: or a new specialization is built
DEFAULT_STREAK_THRESHOLD = 2

#: respecializations of one baseline before it is pinned to baseline
DEFAULT_THRASH_LIMIT = 3


class SpecState:
    """Speculation bookkeeping for one baseline function."""

    __slots__ = ("baseline", "plain", "versions", "active_version",
                 "pinned", "respec_count", "last_observed", "streak")

    def __init__(self, baseline: Function):
        self.baseline = baseline
        #: the baseline's own compiled code (set by the promotion)
        self.plain: Optional[Callable] = None
        #: (arg_index, value) -> version
        self.versions: Dict[Tuple[int, object], SpecializedVersion] = {}
        #: the version whose code is published at the call boundary, or
        #: None while calls reach the plain code
        self.active_version: Optional[SpecializedVersion] = None
        self.pinned = False
        self.respec_count = 0
        self.last_observed: Optional[Tuple[int, object]] = None
        self.streak = 0


class SpeculationManager:
    """Creates, dispatches among, and retires specialized versions."""

    thrash_limit = DEFAULT_THRASH_LIMIT
    streak_threshold = DEFAULT_STREAK_THRESHOLD
    #: samples the feedback stage waits for before it decides
    min_samples = 4
    #: share of the samples one value needs for a slot to be monomorphic
    min_ratio = 0.95

    def __init__(self, engine):
        self.engine = engine
        self._states: Dict[str, SpecState] = {}

    def state_for(self, func: Function) -> SpecState:
        state = self._states.get(func.name)
        if state is None:
            state = SpecState(func)
            self._states[func.name] = state
        return state

    # -- deciding once ------------------------------------------------------------

    def on_promote(self, func: Function, compiled: Callable) -> Callable:
        """The stage a promotion publishes for a speculating function:
        ``compiled`` behind argument feedback, until the profile holds
        ``min_samples`` samples.  That call decides (:meth:`decide`) and
        continues in the code the decision published."""
        state = self.state_for(func)
        state.plain = compiled
        if state.pinned:
            return compiled
        profile = self.engine.profiler.profile_for(func.name)
        min_samples = self.min_samples

        def feedback(*args):
            profile.record_args(args)
            if profile.samples < min_samples:
                return compiled(*args)
            return self.decide(state, profile, compiled)(*args)

        return feedback

    def decide(self, state: SpecState, profile, plain: Callable) -> Callable:
        """Publish a specialization if ``profile`` has a monomorphic
        argument, else ``plain``; returns what was published (``plain``
        when the publication found no box to go into).  Runs under the
        engine lock, so an invalidation from another thread lands before
        or after it; a stage it retired (``plain`` is no longer the
        state's) has nothing left to decide."""
        with self.engine._lock:
            if state.plain is not plain:
                return plain
            stable = profile.stable_argument(self.min_samples,
                                             self.min_ratio)
            if stable is not None:
                version = state.versions.get(stable)
                if version is None:
                    version = self._build_version(state, *stable)
                if version is not None and self._activate(state, version):
                    return self._code(version)
            self.engine.republish(state.baseline, plain)
            return plain

    def _build_version(self, state: SpecState, arg_index: int, value
                       ) -> Optional[SpecializedVersion]:
        engine = self.engine
        try:
            version = specialize_function(
                state.baseline, arg_index, value,
                module=engine.module, telemetry=engine.telemetry)
        except SpeculationError:
            return None
        state.versions[(arg_index, value)] = version
        engine.add_native(version.miss.name, self._miss_native(state, version))
        return version

    def _code(self, version: SpecializedVersion) -> Callable:
        """``version``'s compiled code, from the engine's one store:
        compiled once, retired by an invalidation of the baseline."""
        engine = self.engine
        return engine.continuation(
            version.function.name, (version.baseline, version.function),
            lambda: compile_function(version.function, engine))

    def _activate(self, state: SpecState, version: SpecializedVersion
                  ) -> bool:
        """Publish ``version``'s code at the baseline's call boundary.
        False, and nothing changes, when the baseline has no published
        code to go above (an invalidation swept it)."""
        if not self.engine.republish(state.baseline, self._code(version)):
            return False
        state.active_version = version
        return True

    # -- the miss path ------------------------------------------------------------

    def _miss_native(self, state: SpecState, version: SpecializedVersion
                     ) -> Callable:
        """The host function behind ``version``'s miss declaration: run
        the policy, then call the code it picked with the same args."""
        engine = self.engine
        key = (version.arg_index, version.value)
        guard = version.function.name

        def miss(*args):
            tel = engine.telemetry
            tel.event(EV.DEOPT_GUARD_FAIL, guard=guard,
                      function=state.baseline.name)
            if state.versions.get(key) is not version:
                # retired by an invalidation: the baseline's current code
                code, target = (engine.get_compiled(state.baseline),
                                state.baseline.name)
            else:
                landed = self._on_miss(state, version,
                                       args[version.arg_index])
                if landed is None:
                    code, target = state.plain, state.baseline.name
                else:
                    code, target = self._code(landed), landed.function.name
            tel.event(EV.DEOPT_EXIT, guard=guard, target=target, mode="call")
            return code(*args)

        return miss

    def _on_miss(self, state: SpecState, owner: SpecializedVersion,
                 observed) -> Optional[SpecializedVersion]:
        """Record a miss of ``owner``'s check; returns the version the
        call continues in, or None for the plain code."""
        if state.pinned:
            return None
        key = (owner.arg_index, observed)
        if state.last_observed == key:
            state.streak += 1
        else:
            state.last_observed = key
            state.streak = 1

        sibling = state.versions.get(key)
        if sibling is not None:
            # known value: go there; a persistent streak also re-points
            # the call boundary
            if (state.streak >= self.streak_threshold
                    and state.active_version is not sibling):
                self._activate(state, sibling)
            self.engine.telemetry.event(
                EV.SPEC_DISPATCH, guard=owner.function.name,
                target=sibling.function.name, observed=repr(observed))
            return sibling

        if state.streak < self.streak_threshold:
            return None
        # a new stable value earns another specialization — unless the
        # thrash limit says this function churns values faster than
        # speculation pays off
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

    def _pin(self, state: SpecState) -> None:
        """Stop speculating on this baseline: its plain code goes back
        to the call boundary."""
        state.pinned = True
        state.active_version = None
        self.engine.republish(state.baseline, state.plain)
        self.engine.telemetry.event(
            EV.SPEC_PINNED, function=state.baseline.name,
            respec_count=state.respec_count)

    # -- invalidation -------------------------------------------------------------

    def on_invalidate(self, func: Function) -> None:
        """The baseline's body was rewritten: every version speculated
        from it is stale (its code, stored against the baseline's compile
        generation, is already retired), so its clone, the clone's cached
        analyses, miss declaration and miss native go too.  A stale
        reference to a version's code keeps its miss native, which calls
        the rewritten body; feedback restarts from scratch."""
        state = self._states.get(func.name)
        if state is None:
            return
        engine = self.engine
        for version in state.versions.values():
            engine.remove_native(version.miss.name)
            engine.analysis.forget(version.function)
            engine.module.remove_function(version.function)
            engine.module.remove_function(version.miss)
        state.versions.clear()
        state.plain = None
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
