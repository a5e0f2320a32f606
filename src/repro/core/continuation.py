"""Continuation-function generation (paper Section 3, Figure 7).

Given a variant ``f'`` and a landing block ``L'``, build the continuation
``f'_to``:

1. open a fresh function whose parameters are the live values
   transferred at the OSR point, with an ``osr.entry`` block that runs
   the state mapping's compensation code and jumps straight to ``L'``;
2. copy into it the blocks of ``f'`` that ``L'`` reaches — the old entry
   region the paper deletes as dead code is never made — naming the
   mapping's value wherever the copy uses a live-in value defined
   outside them (an argument, code that only runs before ``L'``);
3. join ``osr.entry`` into ``L'`` (:func:`join_landing`) for the
   live-in values defined inside them (loop-carried state);
4. remove what became dead, so the continuation is a lean function that
   LLVM-style global optimization can treat like any other (the paper's
   "generation of highly optimized continuation functions").

A *state mapping* is a plain ``dict`` from each value of ``f'`` live at
``L'`` to either an ``int`` — the index of the transferred live value it
arrives as — or compensation code: a callable ``(builder, params) ->
Value`` run with the builder in ``osr.entry``, which may emit any number
of instructions (unboxing calls, allocations, heap adjustments — compare
the paper's Figure 9).  Entries materialize in insertion order, so
side-effecting glue goes in the first entry.  The identity mapping is
``{v: i for i, v in enumerate(live_values)}``.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from ..analysis.cfg import reachable_blocks
from ..analysis.manager import resolve_manager
from ..obs import events as EV
from ..obs.telemetry import ambient as ambient_telemetry
from ..ir.builder import IRBuilder
from ..ir.function import BasicBlock, Function, Module
from ..ir.instructions import Instruction, PhiInst
from ..ir.types import FunctionType
from ..ir.values import Argument, UndefValue, Value
from ..ir.verifier import verify_function
from ..transform.clone import ValueMap, clone_blocks
from ..transform.dce import eliminate_dead_code
from ..transform.ssaupdater import SSAUpdater

#: landing-live value of the variant -> transferred index or compensation
StateMap = Dict[Value, Union[int, Callable[[IRBuilder, List[Argument]],
                                           Value]]]


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


def join_landing(func: Function, landing: BasicBlock, entry: BasicBlock,
                 definitions: Iterable[Tuple[Value, Value]], am) -> None:
    """Give ``landing`` a second way in, from ``entry``, along which each
    ``(value, arriving)`` of ``definitions`` holds ``arriving``.

    A phi of ``landing`` takes ``arriving`` as one more incoming; any
    other definition gets two-definition SSA repair (an argument counts
    as defined at the function's entry), the repairs sharing one
    dominator tree, frontier and predecessor map through ``am`` since phi
    insertion never changes the CFG.  Landing phis the definitions leave
    uncovered take ``undef`` (dead ones are pruned by the caller's
    cleanup; live ones mean the state was incomplete)."""
    repairs: List[Tuple[Value, Value]] = []
    for value, arriving in definitions:
        if isinstance(value, PhiInst) and value.parent is landing:
            value.add_incoming(arriving, entry)
        else:
            repairs.append((value, arriving))
    for phi in landing.phis:
        if not phi.has_incoming_for(entry):
            phi.add_incoming(UndefValue(phi.type), entry)
    for value, arriving in repairs:
        updater = SSAUpdater(func, value.type, value.name or "osr", am=am)
        updater.add_definition(
            value.parent if isinstance(value, Instruction) else func.entry,
            value)
        updater.add_definition(entry, arriving)
        updater.rewrite_uses_of(value)


def generate_continuation(
    variant: Function,
    landing: BasicBlock,
    live_values: Sequence[Value],
    mapping: StateMap,
    name: Optional[str] = None,
    module: Optional[Module] = None,
    verify: bool = True,
    telemetry=None,
    am=None,
    landing_state: Optional[Sequence[Value]] = None,
) -> Function:
    """Build the continuation function ``f'_to``.

    ``live_values`` are the *base-function* values transferred at the OSR
    point; they define the continuation's signature (their types) and
    parameter names.  ``mapping`` must cover every live-in value of
    ``landing`` (keys are values of ``variant``); use
    :func:`required_landing_state` to enumerate them.  A caller that
    already holds that list — insertion into ``f`` itself takes it before
    splitting the block — passes it as ``landing_state`` and the
    completeness check runs against it instead of a second liveness solve.

    The continuation joins the module only once it is built (and, with
    ``verify``, verified): a mapping that raises, an incomplete mapping
    or a body that fails verification leaves the module as it was.

    Generation is traced as an ``osr.continuation`` span (with an
    ``osr.compensation`` instant recording how many state-mapping entries
    materialized in ``osr.entry`` and how many of them were compensation
    code) on ``telemetry``, defaulting to the ambient telemetry.
    """
    tel = telemetry if telemetry is not None else ambient_telemetry()
    with tel.span(EV.OSR_CONTINUATION, variant=variant.name,
                  landing=landing.name, live=len(live_values)):
        return _generate_continuation(
            variant, landing, live_values, mapping, name, module,
            verify, tel, resolve_manager(am), landing_state,
        )


def _generate_continuation(
    variant: Function,
    landing: BasicBlock,
    live_values: Sequence[Value],
    mapping: StateMap,
    name: Optional[str],
    module: Optional[Module],
    verify: bool,
    telemetry,
    am,
    landing_state: Optional[Sequence[Value]],
) -> Function:
    if landing.parent is not variant:
        raise OSRError(
            f"landing block %{landing.name} is not in variant @{variant.name}"
        )
    target_module = module if module is not None else variant.module
    if target_module is None:
        raise OSRError("variant has no module and none was provided")

    if landing_state is None:
        landing_state = required_landing_state(variant, landing, am)
    missing = [v for v in landing_state if v not in mapping]
    if missing:
        names = ", ".join(f"%{v.name}" for v in missing)
        raise OSRError(
            f"state mapping is missing live value(s) at %{landing.name} "
            f"of @{variant.name}: {names}"
        )

    cont_type = FunctionType(
        variant.return_type, [v.type for v in live_values]
    )
    param_names = osr_param_names(live_values)
    cont_name = target_module.unique_name(name or f"{variant.name}to")
    cont = Function(cont_type, cont_name, param_names)

    # -- osr.entry with compensation code ---------------------------------------
    osr_entry = BasicBlock("osr.entry", cont)
    builder = IRBuilder(osr_entry)
    params = list(cont.args)
    replacements: List[Tuple[Value, Value]] = [
        (variant_value,
         params[source] if isinstance(source, int)
         else source(builder, params))
        for variant_value, source in mapping.items()
    ]
    cont.attributes["osr.role"] = "continuation"
    # the transferred-state width, queryable after the fact (Q3's state
    # tables and the scalarization benchmarks read this)
    cont.attributes["osr.state_size"] = str(len(live_values))
    telemetry.event(
        EV.OSR_COMPENSATION, continuation=cont.name,
        entries=len(replacements),
        computed=sum(not isinstance(s, int) for s in mapping.values()),
    )

    # -- clone what the landing block reaches ---------------------------------
    # a mapped value defined outside that region (an argument, code that
    # only runs before L') is simply the value the mapping provides; one
    # defined inside it is loop-carried state, joined in below
    region = reachable_blocks(variant, landing)
    vmap = ValueMap()
    placeholders: List[_Placeholder] = []
    for arg in variant.args:
        placeholder = _Placeholder(arg.type, arg.name)
        vmap[arg] = placeholder
        placeholders.append(placeholder)
    carried: List[Tuple[Instruction, Value]] = []
    for variant_value, replacement in replacements:
        if isinstance(variant_value, Instruction):
            if variant_value.parent in region:
                carried.append((variant_value, replacement))
                continue
        elif not isinstance(variant_value, Argument):
            raise OSRError(
                f"state mapping key {variant_value!r} is not a rewritable "
                f"value"
            )
        vmap[variant_value] = replacement
    clone_blocks((b for b in variant.blocks if b in region), vmap, cont)
    landing_clone: BasicBlock = vmap[landing]
    builder.br(landing_clone)
    join_landing(cont, landing_clone, osr_entry,
                 ((vmap[value], arriving) for value, arriving in carried), am)

    # -- cleanup ---------------------------------------------------------------------
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
    target_module.add_function(cont)
    return cont


def osr_param_names(live_values: Sequence[Value]) -> List[str]:
    """``<name>_osr`` per transferred value, made distinct."""
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
