"""The speculation pass: clone + specialize under explicit guards.

Driven by :class:`~repro.vm.profile.ValueFeedback`: when a function's
profile says an argument slot is monomorphic, the pass clones the
function, folds the argument to the observed constant, and protects the
assumption with ``guard`` pseudo-instructions — one at the entry block
and one at every loop header, so a deopt can be taken both at the call
boundary and mid-loop (the OSR-exit sites of the paper's Figure 3,
repurposed for exits instead of entries).

Each guard captures the baseline's live set at its site (mapped through
the clone's value map) plus the speculated argument, and owns a
:class:`FrameState` telling the deopt manager how to resume the baseline
from exactly that state.  After guard insertion the speculative body is
optimized (constant folding, CFG simplification, DCE) — this is where
the speedup comes from: branches on the speculated value fold away, and
the guards keep the result semantically honest.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from ..analysis.manager import resolve_manager
from ..ir.builder import IRBuilder
from ..ir.function import BasicBlock, Function, Module
from ..ir.instructions import GuardInst
from ..ir.types import FloatType, IntType
from ..ir.values import ConstantFloat, ConstantInt, Value
from ..ir.verifier import verify_function
from ..obs import events as EV
from ..obs.telemetry import ambient as ambient_telemetry
from ..transform import eliminate_dead_code, fold_constants, simplify_cfg
from ..transform.clone import ValueMap, clone_function


class SpeculationError(Exception):
    """Raised when a function cannot be specialized."""


class FrameState(NamedTuple):
    """Deopt recipe for one guard: resume ``baseline`` at ``landing``.

    ``live_values`` are *baseline* values in the guard's capture order:
    the deterministic liveness order of ``landing`` followed by the
    speculated argument (always captured last, so the deopt manager can
    read the observed value that failed the guard).  The guard's runtime
    live values become the exit continuation's parameters under the
    identity mapping, so ``len(live_values)`` is the recipe's state size
    — the number scalarization shrinks."""

    baseline: Function
    landing: BasicBlock
    live_values: List[Value]


class SpecializedVersion:
    """One speculative clone of a baseline function."""

    __slots__ = ("baseline", "function", "arg_index", "value", "guards",
                 "vmap")

    def __init__(self, baseline: Function, function: Function,
                 arg_index: int, value, guards: Dict[str, FrameState],
                 vmap: ValueMap):
        self.baseline = baseline
        self.function = function
        self.arg_index = arg_index
        #: the speculated constant for argument ``arg_index``
        self.value = value
        #: guard id -> frame state, for every guard in ``function``
        self.guards = guards
        #: baseline -> clone value map (kept for dispatched continuations)
        self.vmap = vmap

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<SpecializedVersion @{self.function.name} of "
            f"@{self.baseline.name} arg{self.arg_index}={self.value!r}>"
        )


def _speculation_constant(arg_type, value):
    if isinstance(arg_type, IntType) and type(value) is int:
        return ConstantInt(arg_type, arg_type.wrap(value))
    if isinstance(arg_type, FloatType) and type(value) is float:
        return ConstantFloat(arg_type, value)
    return None


def specialize_function(
    baseline: Function,
    arg_index: int,
    value,
    module: Optional[Module] = None,
    telemetry=None,
    am=None,
) -> SpecializedVersion:
    """Build a guarded specialization of ``baseline`` for
    ``args[arg_index] == value``.

    Returns the :class:`SpecializedVersion` holding the new function and
    its per-guard frame states.  The baseline is left untouched — the
    engine keeps dispatching through it and only routes calls to the
    specialization while its guards hold; since the baseline never
    changes, its liveness and loop info (pulled from ``am``, defaulting
    to the process-wide manager) stay cached across respecializations.
    """
    if baseline.is_declaration:
        raise SpeculationError(f"cannot specialize declaration @{baseline.name}")
    if not 0 <= arg_index < len(baseline.args):
        raise SpeculationError(
            f"@{baseline.name} has no argument {arg_index}"
        )
    arg = baseline.args[arg_index]
    const = _speculation_constant(arg.type, value)
    if const is None:
        raise SpeculationError(
            f"cannot speculate {value!r} for argument of type {arg.type}"
        )
    target_module = module if module is not None else baseline.module
    if target_module is None:
        raise SpeculationError("baseline has no module and none was provided")

    tel = telemetry if telemetry is not None else ambient_telemetry()
    with tel.span(EV.SPEC_SPECIALIZE, function=baseline.name,
                  arg_index=arg_index, value=repr(value)):
        return _specialize(baseline, arg_index, const, value,
                           target_module, resolve_manager(am), tel)


def _specialize(baseline: Function, arg_index: int, const, value,
                module: Module, am, telemetry) -> SpecializedVersion:
    arg = baseline.args[arg_index]
    baseline.assign_names()
    liveness = am.liveness(baseline)

    # guard sites: function entry + every loop header, deduplicated in
    # layout order — one boundary check plus one mid-flight exit per loop
    sites: List[BasicBlock] = [baseline.entry]
    for loop in am.loop_info(baseline).loops:
        if loop.header not in sites:
            sites.append(loop.header)

    spec_name = module.unique_name(f"{baseline.name}.spec")
    clone, vmap = clone_function(baseline, spec_name, module)
    clone.attributes["spec.of"] = baseline.name
    clone.attributes["spec.arg"] = str(arg_index)
    spec_arg = vmap[arg]

    guards: Dict[str, FrameState] = {}
    protected: set = set()  # ids of instructions the RAUW must skip
    for site in sites:
        lives_base = liveness.live_at_block_entry(site)
        guard_id = f"{spec_name}#{site.name}"
        clone_site: BasicBlock = vmap[site]
        builder = IRBuilder()
        builder.position_before(
            clone_site.instructions[clone_site.first_non_phi_index]
        )
        if isinstance(arg.type, FloatType):
            cond = builder.fcmp("oeq", spec_arg, const, "spec.check")
        else:
            cond = builder.icmp("eq", spec_arg, const, "spec.check")
        # the speculated argument is captured LAST so the deopt manager
        # can read the observed (guard-failing) value as lives[-1]
        capture = [vmap.lookup(v) for v in lives_base] + [spec_arg]
        guard = builder.guard(cond, guard_id, capture)
        protected.add(id(cond))
        protected.add(id(guard))
        guards[guard_id] = FrameState(baseline, site,
                                      list(lives_base) + [arg])
        telemetry.event(
            EV.OSR_STATE_SIZE, function=clone.name, kind="guard",
            guard=guard_id, live=len(capture),
        )

    # selective RAUW: fold the speculated argument to the constant
    # everywhere EXCEPT the guard machinery itself — the condition must
    # keep comparing the real runtime value, and the capture must keep
    # transferring it
    for use in list(spec_arg.uses):
        if id(use.user) not in protected:
            use.user.set_operand(use.index, const)

    fold_constants(clone)
    simplify_cfg(clone)
    eliminate_dead_code(clone)
    # optimization may have deleted guard sites that became unreachable
    # under the speculated value; drop their records
    remaining = {
        inst.guard_id
        for block in clone.blocks
        for inst in block.instructions
        if isinstance(inst, GuardInst)
    }
    guards = {gid: fs for gid, fs in guards.items() if gid in remaining}

    clone.assign_names()
    verify_function(clone)
    return SpecializedVersion(baseline, clone, arg_index, value, guards, vmap)
