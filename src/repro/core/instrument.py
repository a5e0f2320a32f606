"""OSR point insertion (paper Section 3, Figures 5 and 6).

Instruments a base function ``f`` at an arbitrary location ``L`` (any
instruction boundary — one of the paper's novel claims over McOSR's
loop-header restriction):

* the containing block is split at ``L``;
* the condition's code is emitted before the split edge and a conditional
  branch diverts control to a dedicated ``osr`` block when it fires;
* the ``osr`` block tail-calls either the continuation function directly
  (*resolved* OSR, Figure 2) or a freshly built *stub* that invokes a
  code generator at run time and then calls the continuation it produced
  (*open* OSR, Figures 3 and 6).

Instrumentation happens in place (the instrumented ``f`` is the paper's
``f_from``); callers holding an execution engine should let these helpers
invalidate the compiled form so the next call picks up the OSR machinery.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Optional, Sequence

from ..analysis.manager import default_manager
from ..ir import types as T
from ..ir.builder import IRBuilder
from ..ir.constexpr import ConstantIntToPtr
from ..ir.function import BasicBlock, Function
from ..ir.instructions import Instruction
from ..ir.types import FunctionType, PointerType
from ..ir.values import Value
from ..ir.verifier import verify_function
from ..obs import events as EV
from ..obs.telemetry import ambient as ambient_telemetry
from ..transform.clone import clone_function
from ..vm.runtime import FunctionHandle
from .conditions import OSRCondition
from .continuation import (
    OSRError,
    StateMap,
    generate_continuation,
    osr_param_names,
)


def telemetry_for(engine):
    """The telemetry insertion helpers trace to: the engine's, or the
    ambient telemetry for engine-less callers."""
    return engine.telemetry if engine is not None else ambient_telemetry()


def _unwrap_ir(obj):
    """Collapse an engine :class:`FunctionHandle` back to its IR function.

    The object table routes interned functions through the engine's
    handle path, so handles baked into stub IR resolve to the callable
    :class:`FunctionHandle`; host-side generators want the IR object.
    """
    if isinstance(obj, FunctionHandle):
        return obj.function
    return obj


class ResolvedOSR(NamedTuple):
    """Result of inserting a resolved OSR point."""

    function: Function      #: the instrumented f_from
    continuation: Function  #: f'_to
    variant: Function       #: f' (f itself when none was given)
    osr_block: BasicBlock
    continuation_block: BasicBlock
    live_values: List[Value]


class OpenOSR(NamedTuple):
    """Result of inserting an open OSR point."""

    function: Function  #: the instrumented f_from
    stub: Optional[Function]  #: f_stub (none in the no-stub ablation)
    osr_block: BasicBlock
    continuation_block: BasicBlock
    live_values: List[Value]


def split_block_at(location: Instruction) -> BasicBlock:
    """Split the block containing ``location`` so that ``location`` starts
    a new block; returns that new block.

    The original block keeps the instructions before ``location`` (and all
    phis) and falls through with an unconditional branch.  This is a pure
    restructuring — semantics are unchanged.
    """
    block = location.parent
    if block is None:
        raise OSRError("location is not inside a block")
    if location.is_phi:
        raise OSRError("cannot split at a phi; choose the first non-phi")
    cont = BasicBlock(f"{block.name}.cont")
    block.parent.add_block(cont, after=block)
    block.move_tail(location, cont)
    # successors' phis must now name the new block
    for succ in cont.successors():
        for phi in succ.phis:
            phi.replace_incoming_block(block, cont)
    IRBuilder(block).br(cont)
    return cont


class OSRSite(NamedTuple):
    """An OSR point on its way in: :func:`open_osr_point` captures the
    state and splits the block, :func:`emit_osr_check` adds the check and
    an empty ``osr`` block for the flavour's firing path, and
    :func:`close_osr_point` seals it."""

    function: Function
    engine: Any
    live_values: List[Value]        #: the state the point transfers
    check_block: BasicBlock         #: ends at the location; gets the check
    continuation_block: BasicBlock  #: starts at the location (not fired)
    osr_block: Optional[BasicBlock] = None  #: the firing path
    builder: Optional[IRBuilder] = None     #: positioned in ``osr_block``
    #: the blocks the insertion wrote to, for :func:`close_osr_point`
    touched: Sequence[BasicBlock] = ()


def open_osr_point(func: Function, location: Instruction, kind: str,
                   engine=None,
                   live_values: Optional[List[Value]] = None) -> OSRSite:
    """Open an OSR point before ``location`` — the part every flavour
    shares.  Captures the state (``live_values``; by default the values
    live before ``location``, from the process-wide analysis manager, so
    repeated insertions against one function version share the result), records its width (an ``osr.state_size``
    instant tagged ``kind`` and the ``osr.live_slots`` gauge) and splits
    the block at ``location``.  The check comes with
    :func:`emit_osr_check`, once the flavour has taken what it needs from
    the un-instrumented body (the resolved continuation, McOSR's second
    way into the landing block).
    """
    if func.module is None:
        raise OSRError(f"@{func.name} is not inside a module")
    if live_values is None:
        live_values = default_manager().liveness(func).live_before(location)
    tel = telemetry_for(engine)
    tel.event(EV.OSR_STATE_SIZE, function=func.name, kind=kind,
              live=len(live_values))
    # this is the number the scalarization work is measured by — fewer
    # live slots means smaller continuation signatures and deopt recipes
    tel.metrics.gauge(EV.OSR_LIVE_SLOTS, len(live_values))
    check_block = location.parent
    return OSRSite(func, engine, live_values, check_block,
                   split_block_at(location))


def emit_osr_check(site: OSRSite, condition: OSRCondition) -> OSRSite:
    """Emit ``condition`` at the end of the opened point's check block,
    with a branch to a fresh ``osr`` block.  The caller fills that block
    through the returned site's ``builder`` and hands the value to return
    to :func:`close_osr_point`."""
    func, check_block = site.function, site.check_block
    phis_before = {block: block.first_non_phi_index for block in func.blocks}
    terminator = check_block.terminator
    cond_value = condition.emit(
        func, IRBuilder().position_before(terminator))
    osr_block = BasicBlock("osr")
    func.add_block(osr_block)
    terminator.erase_from_parent()
    IRBuilder(check_block).cond_br(cond_value, osr_block,
                                   site.continuation_block)
    # written to: both halves of the split block, the successors whose
    # phis were renamed, the osr block, wherever the condition put phis
    touched = [check_block, site.continuation_block, osr_block,
               *site.continuation_block.successors()]
    touched += [block for block, phis in phis_before.items()
                if block.first_non_phi_index != phis]
    return site._replace(osr_block=osr_block, builder=IRBuilder(osr_block),
                         touched=touched)


def close_osr_point(site: OSRSite, result: Value, verify: bool = True,
                    whole: bool = False) -> None:
    """Close an OSR point: return ``result`` (the firing path's call)
    from the ``osr`` block, name the function, verify the blocks the
    insertion touched (all of them with ``whole``, for a flavour that
    rewrote beyond the site) and retire the function's compiled form and
    cached analyses."""
    func = site.function
    if func.return_type.is_void:
        site.builder.ret_void()
    else:
        site.builder.ret(result)
    func.assign_names()
    if verify:
        verify_function(func, None if whole else site.touched)
    if site.engine is not None:
        site.engine.invalidate(func)  # bumps code_version via the manager
    else:
        default_manager().invalidate(func)


def insert_resolved_osr_point(
    func: Function,
    location: Instruction,
    condition: OSRCondition,
    variant: Optional[Function] = None,
    landing: Optional[BasicBlock] = None,
    mapping: Optional[StateMap] = None,
    cont_name: Optional[str] = None,
    engine=None,
) -> ResolvedOSR:
    """Insert a resolved OSR point before ``location`` (Figure 2).

    With no ``variant``, the OSR transfers to ``func`` itself (the
    paper's Q2 setup): the continuation is cut straight from ``func``,
    split at ``location`` but not yet instrumented, landing on the lower
    half under the identity state mapping — no intermediate copy, and one
    liveness query serves the transferred state and the mapping's
    completeness check.  Otherwise the caller provides the variant
    ``f'``, the landing block ``L'`` and a state mapping (a ``dict``, see
    :mod:`repro.core.continuation`) covering the live-in state of ``L'``
    (with compensation code as needed).  The continuation is verified
    whole, ``func`` on the blocks the insertion touched.

    Insertion is traced as an ``osr.insert`` span (kind ``resolved``) on
    the engine's telemetry (ambient when no engine is given), and the
    continuation is tagged ``osr.entrypoint = "resolved"`` so the engine
    can observe fires when it is entered.  To shrink the captured state,
    run the ``scalarize`` pass over ``func`` first.
    """
    tel = telemetry_for(engine)
    with tel.span(EV.OSR_INSERT, function=func.name, kind="resolved"):
        if variant is None:
            if landing is not None or mapping is not None:
                raise OSRError(
                    "landing/mapping given without a variant function"
                )
        elif landing is None or mapping is None:
            raise OSRError("an explicit variant requires landing and mapping")

        site = open_osr_point(func, location, "resolved", engine)
        live_values, landing_state = site.live_values, None
        if variant is None:
            # f' = f: land on the lower half, in the state just captured
            variant, landing = func, site.continuation_block
            mapping = {v: i for i, v in enumerate(live_values)}
            landing_state = live_values
        continuation = generate_continuation(
            variant, landing, live_values, mapping,
            name=cont_name or f"{variant.name}to",
            module=func.module, telemetry=tel, landing_state=landing_state,
        )
        continuation.attributes["osr.entrypoint"] = "resolved"
        site = emit_osr_check(site, condition)
        call = site.builder.call(continuation, live_values, "osr.res",
                                 tail=True)
        close_osr_point(site, call)
        return ResolvedOSR(func, continuation, variant, site.osr_block,
                           site.continuation_block, live_values)


#: signature of the run-time code generator the open-OSR stub invokes:
#: (f, osr-block, env, val) -> continuation function pointer
def _generator_type(cont_fnty: FunctionType) -> FunctionType:
    i8p = T.ptr(T.i8)
    return FunctionType(PointerType(cont_fnty), [i8p, i8p, i8p, i8p])


def _emit_generation(builder: IRBuilder, func: Function,
                     live_values: Sequence[Value], generator: Callable,
                     env: Any, engine, gen_function: Function,
                     gen_block: BasicBlock, val: Value) -> Value:
    """Emit, at ``builder``, the call to the host code generator and the
    tail call of the continuation it returns, forwarding ``live_values``;
    returns that call.  The generator is reached through a function
    pointer baked in as an ``inttoptr`` constant and receives three more
    baked-in ``i8*`` handles — the function and block to generate from,
    and the environment — plus ``val``.  Every run-time invocation (every
    firing of the open OSR point) emits an ``osr.fire`` instant with
    ``kind: "open"``."""
    i8p = T.ptr(T.i8)
    func_name = func.name

    def generator_wrapper(f_obj, block_obj, env_obj, val):
        engine.telemetry.event(EV.OSR_FIRE, kind="open", function=func_name)
        produced = generator(
            _unwrap_ir(f_obj), block_obj, _unwrap_ir(env_obj), val
        )
        if isinstance(produced, Function):
            return engine.handle_for(produced)
        if callable(produced):
            return produced
        raise OSRError(
            f"open-OSR generator returned non-callable {produced!r}"
        )

    gen_fnty = _generator_type(
        FunctionType(func.return_type, [v.type for v in live_values]))
    intern = engine.object_table.intern
    gen_ptr = ConstantIntToPtr(
        PointerType(gen_fnty),
        intern(engine.add_native(f"osr.gen.{func_name}", generator_wrapper)),
    )
    cont_func = builder.call_indirect(
        gen_ptr,
        [
            ConstantIntToPtr(i8p, intern(gen_function)),
            ConstantIntToPtr(i8p, intern(gen_block)),
            ConstantIntToPtr(i8p, intern(env)),
            val,
        ],
        "cont.func",
    )
    return builder.call_indirect(
        cont_func, list(live_values), "osr.res", tail=True
    )


def build_open_osr_stub(
    func: Function,
    osr_source_block: BasicBlock,
    live_values: Sequence[Value],
    generator: Callable,
    env: Any,
    engine,
    gen_function: Optional[Function] = None,
    gen_block: Optional[BasicBlock] = None,
) -> Function:
    """Build ``f_stub`` (Figure 6).

    The stub receives ``(i8* val, live values...)``; it calls the code
    generator, passing handles to the base function, the OSR source block
    and the code-generation environment plus the forwarded ``val``, then
    tail-calls the continuation the generator returned, forwarding the
    live values (see :func:`_emit_generation`).

    ``generator(f, block, env, val)`` runs in the host; it must return an
    IR :class:`Function` (the continuation) or a callable.

    Stub construction is traced as an ``osr.open_stub`` span on the
    engine's telemetry.
    """
    with engine.telemetry.span(EV.OSR_OPEN_STUB, function=func.name):
        module = func.module
        stub = Function(
            FunctionType(func.return_type,
                         [T.ptr(T.i8)] + [v.type for v in live_values]),
            module.unique_name(f"{func.name}stub"),
            ["val"] + osr_param_names(live_values),
        )
        module.add_function(stub)

        builder = IRBuilder(BasicBlock("entry", stub))
        call = _emit_generation(
            builder, func, stub.args[1:], generator, env, engine,
            gen_function if gen_function is not None else func,
            gen_block if gen_block is not None else osr_source_block,
            stub.args[0],
        )
        if func.return_type.is_void:
            builder.ret_void()
        else:
            builder.ret(call)
        verify_function(stub)
        return stub


def _pristine_twin(site: OSRSite):
    """A copy of the opened function — split, not yet instrumented — and
    its block at the location: what an open point's generator is handed
    when it fires.  The function is named first, so the twin's values
    carry the names the transferred live values will have: a generator
    may map the twin's landing state to them by name."""
    func = site.function
    func.assign_names()
    twin, vmap = clone_function(
        func, func.module.unique_name(f"{func.name}.orig"))
    return twin, vmap[site.continuation_block]


def insert_open_osr_point(
    func: Function,
    location: Instruction,
    condition: OSRCondition,
    generator: Callable,
    engine,
    env: Any = None,
    val: Optional[Value] = None,
    use_stub: bool = True,
) -> OpenOSR:
    """Insert an open OSR point before ``location`` (Figure 3).

    ``generator(f, block, env, val)`` is invoked in the host when the OSR
    fires; it receives the base function, the block the OSR fired from,
    the caller-supplied environment object, and the run-time value of
    ``val`` (an ``i8*``-compatible live value, or null).  It must return
    the continuation :class:`Function` to transfer to.

    The ``f`` handed to the generator is a clone of the function
    *before* the OSR machinery was added, so continuations derived from
    it carry no counter state — matching the paper's Figure 7, where the
    continuation is free of instrumentation.

    Insertion is traced as an ``osr.insert`` span (kind ``open``) on the
    engine's telemetry; the enclosed stub construction contributes a
    nested ``osr.open_stub`` span.  To shrink the captured state (and
    hence the stub and continuation signatures), run the ``scalarize``
    pass over ``func`` first.
    """
    with engine.telemetry.span(EV.OSR_INSERT, function=func.name,
                               kind="open"):
        if val is not None and not val.type.is_pointer:
            raise OSRError(
                f"open-OSR val must be pointer-typed, got {val.type}")
        site = open_osr_point(func, location, "open", engine)
        gen_function, gen_block = _pristine_twin(site)
        site = emit_osr_check(site, condition)
        live_values = site.live_values
        stub: Optional[Function] = None
        if use_stub:
            stub = build_open_osr_stub(
                func, site.continuation_block, live_values, generator, env,
                engine, gen_function=gen_function, gen_block=gen_block,
            )

        builder = site.builder
        i8p = T.ptr(T.i8)
        if val is None:
            val_i8 = builder.const_null(i8p)
        elif val.type == i8p:
            val_i8 = val
        else:
            val_i8 = builder.bitcast(val, i8p, "val")
        if use_stub:
            call = builder.call(
                stub, [val_i8] + list(live_values), "osr.res", tail=True
            )
        else:
            # ablation configuration: no stub indirection — the generator
            # invocation machinery is injected straight into the function
            # (the design the paper's stub exists to avoid)
            call = _emit_generation(
                builder, func, live_values, generator, env, engine,
                gen_function, gen_block, val_i8,
            )
        close_osr_point(site, call)
        return OpenOSR(func, stub, site.osr_block, site.continuation_block,
                       live_values)


def remove_osr_point(point, engine=None) -> Function:
    """Undo an OSR instrumentation (de-instrumentation).

    Retargets the firing branch so the check block falls through
    unconditionally, deletes the ``osr`` block, and strips the now-dead
    condition machinery (including self-sustaining counter phis) with
    DCE.  The continuation/stub functions stay in the module —
    other callers may still reference them; drop them explicitly if not.

    Accepts a :class:`ResolvedOSR`, :class:`OpenOSR`, or anything with
    ``function`` and ``osr_block`` attributes; returns the cleaned
    function.
    """
    from ..analysis.cfg import remove_unreachable_blocks
    from ..transform.dce import eliminate_dead_code

    func: Function = point.function
    osr_block: BasicBlock = point.osr_block
    if osr_block.parent is not func:
        raise OSRError("OSR point was already removed")
    for pred in osr_block.predecessors():
        term = pred.terminator
        remaining = [s for s in term.successors() if s is not osr_block]
        if len(remaining) != 1:
            raise OSRError(
                f"cannot de-instrument: %{pred.name} does not end in the "
                f"expected two-way OSR check"
            )
        term.erase_from_parent()
        IRBuilder(pred).br(remaining[0])
    remove_unreachable_blocks(func)
    eliminate_dead_code(func)
    verify_function(func)
    if engine is not None:
        engine.invalidate(func)  # bumps code_version via the manager
    else:
        default_manager().invalidate(func)
    return func
