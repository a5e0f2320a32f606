"""Continuation-function generation (paper Section 3, Figure 7).

Given a variant ``f'`` and a landing block ``L'``, build the continuation
``f'_to``:

1. clone ``f'`` into a fresh function whose parameters are the live
   values transferred at the OSR point;
2. prepend an ``osr.entry`` block that runs the state mapping's
   compensation code and jumps straight to ``L'``;
3. rewire every live-in value of ``L'`` to the value the state mapping
   provides — adding phi incomings at ``L'``, RAUW-ing values whose
   definitions became unreachable, and running single-variable SSA repair
   for definitions that remain reachable (loop-carried state);
4. delete the now-unreachable original entry region and (optionally) run
   cleanup passes, so the continuation is a lean function that LLVM-style
   global optimization can treat like any other (the paper's "generation
   of highly optimized continuation functions").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.cfg import reachable_blocks, remove_unreachable_blocks
from ..analysis.manager import resolve_manager
from ..obs import events as EV
from ..obs.telemetry import ambient as ambient_telemetry
from ..ir.builder import IRBuilder
from ..ir.function import BasicBlock, Function, Module
from ..ir.instructions import Instruction, PhiInst
from ..ir.types import FunctionType
from ..ir.values import Argument, UndefValue, Value
from ..ir.verifier import verify_function
from ..transform.clone import ValueMap, clone_instruction
from ..transform.dce import eliminate_dead_code
from ..transform.ssaupdater import SSAUpdater
from .statemap import StateMapping


class OSRError(Exception):
    """Raised when OSR instrumentation or continuation generation fails."""


class _Placeholder(Value):
    """Stand-in for a variant argument during continuation cloning."""

    __slots__ = ()


def required_landing_state(variant: Function, landing: BasicBlock,
                           am=None) -> List[Value]:
    """The values a state mapping must provide: every value of ``variant``
    live at the entry of ``landing`` (including ``landing``'s phis).

    The liveness result comes from ``am`` (defaulting to the process-wide
    :class:`~repro.analysis.AnalysisManager`), so callers that enumerate
    the landing state and then generate the continuation share one
    computation per variant version."""
    return resolve_manager(am).liveness(variant).live_at_block_entry(landing)


def generate_continuation(
    variant: Function,
    landing: BasicBlock,
    live_values: Sequence[Value],
    mapping: StateMapping,
    name: Optional[str] = None,
    module: Optional[Module] = None,
    verify: bool = True,
    telemetry=None,
    am=None,
) -> Function:
    """Build the continuation function ``f'_to``.

    ``live_values`` are the *base-function* values transferred at the OSR
    point; they define the continuation's signature (their types) and
    parameter names.  ``mapping`` must cover every live-in value of
    ``landing`` (keys are values of ``variant``); use
    :func:`required_landing_state` to enumerate them.

    Generation is traced as an ``osr.continuation`` span (with an
    ``osr.compensation`` instant recording how many state-mapping entries
    materialized code in ``osr.entry``) on ``telemetry``, defaulting to
    the ambient telemetry.
    """
    tel = telemetry if telemetry is not None else ambient_telemetry()
    with tel.span(EV.OSR_CONTINUATION, variant=variant.name,
                  landing=landing.name, live=len(live_values)):
        return _generate_continuation(
            variant, landing, live_values, mapping, name, module,
            verify, tel, resolve_manager(am),
        )


def _generate_continuation(
    variant: Function,
    landing: BasicBlock,
    live_values: Sequence[Value],
    mapping: StateMapping,
    name: Optional[str],
    module: Optional[Module],
    verify: bool,
    telemetry,
    am,
) -> Function:
    if landing.parent is not variant:
        raise OSRError(
            f"landing block %{landing.name} is not in variant @{variant.name}"
        )
    target_module = module if module is not None else variant.module
    if target_module is None:
        raise OSRError("variant has no module and none was provided")

    _check_mapping_complete(variant, landing, mapping, am)

    cont_type = FunctionType(
        variant.return_type, [v.type for v in live_values]
    )
    param_names = _osr_param_names(live_values)
    cont_name = target_module.unique_name(name or f"{variant.name}to")
    cont = Function(cont_type, cont_name, param_names)
    target_module.add_function(cont)

    # -- clone the variant body into the continuation -------------------------
    vmap = ValueMap()
    placeholders: List[_Placeholder] = []
    for arg in variant.args:
        placeholder = _Placeholder(arg.type, arg.name)
        vmap[arg] = placeholder
        placeholders.append(placeholder)
    for block in variant.blocks:
        copy = BasicBlock(block.name)
        cont.add_block(copy)
        vmap[block] = copy
    for block in variant.blocks:
        copy_block = vmap[block]
        for inst in block.instructions:
            copy = clone_instruction(inst, vmap)
            copy_block.append(copy)
            if not inst.type.is_void:
                vmap[inst] = copy
    for block in cont.blocks:
        for inst in block.instructions:
            for index, op in enumerate(inst.operands):
                mapped = vmap.get(op)
                if mapped is not None and mapped is not op:
                    inst.set_operand(index, mapped)

    landing_clone: BasicBlock = vmap[landing]

    # -- osr.entry with compensation code ---------------------------------------
    osr_entry = BasicBlock("osr.entry")
    cont.insert_block_front(osr_entry)
    builder = IRBuilder(osr_entry)
    params = list(cont.args)
    if mapping.prologue is not None:
        mapping.prologue(builder, params)
    replacements: List[Tuple[Value, Value]] = []
    for variant_value, source in mapping.items():
        clone_value = vmap.lookup(variant_value)
        replacements.append(
            (clone_value, source.materialize(builder, params))
        )
    builder.br(landing_clone)
    cont.attributes["osr.role"] = "continuation"
    # the transferred-state width, queryable after the fact (Q3's state
    # tables and the scalarization benchmarks read this)
    cont.attributes["osr.state_size"] = str(len(live_values))
    telemetry.event(
        EV.OSR_COMPENSATION, continuation=cont.name,
        entries=len(replacements), prologue=mapping.prologue is not None,
    )

    # -- rewire live state -----------------------------------------------------------
    reachable = reachable_blocks(cont)
    deferred_repairs: List[Tuple[Instruction, Value]] = []
    for clone_value, replacement in replacements:
        if (isinstance(clone_value, PhiInst)
                and clone_value.parent is landing_clone):
            clone_value.add_incoming(replacement, osr_entry)
        elif isinstance(clone_value, _Placeholder):
            clone_value.replace_all_uses_with(replacement)
        elif isinstance(clone_value, Instruction):
            def_block = clone_value.parent
            if def_block is None or def_block not in reachable:
                clone_value.replace_all_uses_with(replacement)
            else:
                deferred_repairs.append((clone_value, replacement))
        else:
            raise OSRError(
                f"state mapping key {clone_value!r} is not a rewritable value"
            )

    # landing phis not covered by the mapping: dead ones get undef (and are
    # pruned below); live ones mean the mapping was incomplete
    for phi in landing_clone.phis:
        if not phi.has_incoming_for(osr_entry):
            phi.add_incoming(UndefValue(phi.type), osr_entry)

    # single-variable SSA repair for loop-carried definitions that remain
    # reachable from the landing pad (run after the CFG is final) — the
    # repairs share one cached dominator tree through the manager, since
    # phi insertion never changes the CFG
    for clone_value, replacement in deferred_repairs:
        updater = SSAUpdater(cont, clone_value.type,
                             clone_value.name or "osr", am=am)
        updater.add_definition(clone_value.parent, clone_value)
        updater.add_definition(osr_entry, replacement)
        updater.rewrite_uses_of(clone_value)

    # -- cleanup ---------------------------------------------------------------------
    remove_unreachable_blocks(cont)
    eliminate_dead_code(cont)
    # the fresh continuation was rewritten wholesale during construction;
    # retire anything cached against its pre-cleanup body
    am.invalidate(cont)

    leftovers = [p for p in placeholders if p.is_used()]
    if leftovers:
        names = ", ".join(f"%{p.name}" for p in leftovers)
        raise OSRError(
            f"state mapping for @{cont.name} does not cover argument(s) "
            f"{names}, which are live at the landing point"
        )

    cont.assign_names()
    if verify:
        verify_function(cont)
    return cont


def _check_mapping_complete(variant: Function, landing: BasicBlock,
                            mapping: StateMapping, am=None) -> None:
    required = required_landing_state(variant, landing, am)
    missing = [v for v in required if mapping.get(v) is None]
    if missing:
        names = ", ".join(f"%{v.name}" for v in missing)
        raise OSRError(
            f"state mapping is missing live value(s) at %{landing.name} "
            f"of @{variant.name}: {names}"
        )


def _osr_param_names(live_values: Sequence[Value]) -> List[str]:
    names: List[str] = []
    taken = set()
    for index, value in enumerate(live_values):
        base = f"{value.name or f'live{index}'}_osr"
        candidate = base
        suffix = 1
        while candidate in taken:
            candidate = f"{base}{suffix}"
            suffix += 1
        taken.add(candidate)
        names.append(candidate)
    return names
