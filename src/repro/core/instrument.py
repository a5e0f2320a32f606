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

from typing import Any, Callable, List, Optional, Sequence

from ..analysis.manager import resolve_manager
from ..ir import types as T
from ..ir.builder import IRBuilder
from ..ir.constexpr import ConstantIntToPtr
from ..ir.function import BasicBlock, Function, Module
from ..ir.instructions import Instruction
from ..ir.types import FunctionType, PointerType
from ..ir.values import Value
from ..ir.verifier import verify_function
from ..obs import events as EV
from ..obs.telemetry import ambient as ambient_telemetry
from ..transform.clone import clone_function
from ..vm.runtime import FunctionHandle
from .conditions import OSRCondition
from .continuation import OSRError, generate_continuation
from .statemap import StateMapping


def _telemetry_for(engine):
    """The telemetry insertion helpers trace to: the engine's if one is
    attached, the ambient telemetry otherwise (engine-less callers)."""
    tel = getattr(engine, "telemetry", None)
    return tel if tel is not None else ambient_telemetry()


def _manager_for(engine, am=None):
    """The analysis manager insertion helpers consult: an explicit one,
    else the engine's, else the process-wide default.  Callers passing
    both an engine and ``am`` should pass the engine's own manager, so
    the invalidation the engine performs hits the same cache."""
    if am is not None:
        return am
    return resolve_manager(getattr(engine, "analysis", None))


def _note_state_size(telemetry, engine, func: Function, kind: str,
                     count: int) -> None:
    """Record the live-state width of a freshly inserted OSR point: an
    ``osr.state_size`` instant on the trace and the ``osr.live_slots``
    gauge on the engine's metrics (when an engine is attached).  This is
    the number the scalarization work is measured by — fewer live slots
    means smaller continuation signatures and slimmer deopt recipes."""
    if telemetry is not None and telemetry.enabled:
        telemetry.event(
            EV.OSR_STATE_SIZE, function=func.name, kind=kind, live=count
        )
    metrics = getattr(engine, "metrics", None)
    if metrics is not None:
        metrics.gauge(EV.OSR_LIVE_SLOTS, count)


def _scalarize_for_osr(func: Function, am) -> None:
    """Run the SROA pass over ``func`` before instrumenting it, with the
    same invalidation discipline the pass manager applies: split
    aggregates shrink the live sets the OSR point is about to capture.

    Callers opting in must pass a ``location`` that survives the rewrite
    (block terminators and arithmetic do; loads/stores/geps on a
    scalarized aggregate are erased, and :func:`split_block_at` rejects
    an erased location)."""
    from ..transform.passmanager import scalarize_pass

    preserved = scalarize_pass(func, am)
    if not preserved.preserves_all:
        am.invalidate(func, preserved)


def _unwrap_ir(obj):
    """Collapse an engine :class:`FunctionHandle` back to its IR function.

    The object table routes interned functions through the engine's
    handle path, so handles baked into stub IR resolve to the callable
    :class:`FunctionHandle`; host-side generators want the IR object.
    """
    if isinstance(obj, FunctionHandle):
        return obj.function
    return obj


class ResolvedOSR:
    """Result of inserting a resolved OSR point."""

    def __init__(self, function: Function, continuation: Function,
                 variant: Function, osr_block: BasicBlock,
                 continuation_block: BasicBlock, live_values: List[Value]):
        self.function = function          #: the instrumented f_from
        self.continuation = continuation  #: f'_to
        self.variant = variant            #: f'
        self.osr_block = osr_block
        self.continuation_block = continuation_block
        self.live_values = live_values


class OpenOSR:
    """Result of inserting an open OSR point."""

    def __init__(self, function: Function, stub: Function,
                 osr_block: BasicBlock, continuation_block: BasicBlock,
                 live_values: List[Value]):
        self.function = function  #: the instrumented f_from
        self.stub = stub          #: f_stub
        self.osr_block = osr_block
        self.continuation_block = continuation_block
        self.live_values = live_values


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
    func = block.parent
    instructions = block.instructions
    index = instructions.index(location)
    cont = BasicBlock(f"{block.name}.cont")
    func.add_block(cont, after=block)
    for inst in instructions[index:]:
        block.remove(inst)
        cont.append(inst)
    # successors' phis must now name the new block
    for succ in cont.successors():
        for phi in succ.phis:
            phi.replace_incoming_block(block, cont)
    IRBuilder(block).br(cont)
    return cont


def _emit_osr_check(func: Function, check_block: BasicBlock,
                    cont_block: BasicBlock, condition: OSRCondition,
                    ) -> BasicBlock:
    """Emit the condition at the end of ``check_block`` and branch to a
    fresh ``osr`` block when it fires; returns the osr block."""
    condition.prepare(func)
    terminator = check_block.terminator
    builder = IRBuilder().position_before(terminator)
    cond_value = condition.emit(func, builder)
    osr_block = BasicBlock("osr")
    func.add_block(osr_block)
    terminator.erase_from_parent()
    IRBuilder(check_block).cond_br(cond_value, osr_block, cont_block)
    return osr_block


def insert_resolved_osr_point(
    func: Function,
    location: Instruction,
    condition: OSRCondition,
    variant: Optional[Function] = None,
    landing: Optional[BasicBlock] = None,
    mapping: Optional[StateMapping] = None,
    cont_name: Optional[str] = None,
    engine=None,
    verify: bool = True,
    am=None,
    scalarize: bool = False,
) -> ResolvedOSR:
    """Insert a resolved OSR point before ``location`` (Figure 2).

    With no ``variant``, the OSR transfers to a clone of ``func`` (the
    paper's Q2 setup): the clone, landing block and identity state mapping
    are derived automatically.  Otherwise the caller provides the variant
    ``f'``, the landing block ``L'`` and a :class:`StateMapping` covering
    the live-in state of ``L'`` (with compensation code as needed).

    Liveness at ``location`` comes from ``am`` (defaulting to the
    engine's analysis manager, or the process-wide one), so repeated
    insertions against the same function version — and the continuation
    generation below — share one computed result.

    Insertion is traced as an ``osr.insert`` span (kind ``resolved``) on
    the engine's telemetry (ambient when no engine is given), and the
    continuation is tagged ``osr.entrypoint = "resolved"`` so the engine
    can observe fires when it is entered.  With ``scalarize=True`` the
    SROA pass runs first (with pass-manager invalidation discipline), so
    the captured live set reflects post-scalarization liveness; the
    ``location`` must survive the rewrite.  Either way the final live
    width is recorded as an ``osr.state_size`` instant and the
    ``osr.live_slots`` gauge.
    """
    tel = _telemetry_for(engine)
    with tel.span(EV.OSR_INSERT, function=func.name, kind="resolved"):
        if scalarize:
            _scalarize_for_osr(func, _manager_for(engine, am))
        return _insert_resolved_osr_point(
            func, location, condition, variant, landing, mapping,
            cont_name, engine, verify, tel, _manager_for(engine, am),
        )


def _insert_resolved_osr_point(
    func: Function,
    location: Instruction,
    condition: OSRCondition,
    variant: Optional[Function],
    landing: Optional[BasicBlock],
    mapping: Optional[StateMapping],
    cont_name: Optional[str],
    engine,
    verify: bool,
    telemetry,
    am,
) -> ResolvedOSR:
    module = func.module
    if module is None:
        raise OSRError(f"@{func.name} is not inside a module")

    live_values = am.liveness(func).live_before(location)
    _note_state_size(telemetry, engine, func, "resolved", len(live_values))
    check_block = location.parent
    cont_block = split_block_at(location)

    if variant is None:
        if landing is not None or mapping is not None:
            raise OSRError(
                "landing/mapping given without a variant function"
            )
        variant, vmap = clone_function(
            func, module.unique_name(f"{func.name}.clone")
        )
        landing = vmap[cont_block]
        mapping = StateMapping.identity(live_values).translate_keys(vmap)
    else:
        if landing is None or mapping is None:
            raise OSRError("an explicit variant requires landing and mapping")

    continuation = generate_continuation(
        variant, landing, live_values, mapping,
        name=cont_name or f"{variant.name}to",
        module=module, verify=verify, telemetry=telemetry, am=am,
    )
    continuation.attributes["osr.entrypoint"] = "resolved"

    osr_block = _emit_osr_check(func, check_block, cont_block, condition)
    builder = IRBuilder(osr_block)
    call = builder.call(continuation, live_values, "osr.res", tail=True)
    if func.return_type.is_void:
        builder.ret_void()
    else:
        builder.ret(call)
    condition.finalize(func)

    func.assign_names()
    if verify:
        verify_function(func)
    if engine is not None:
        engine.invalidate(func)  # bumps code_version via the manager
    else:
        am.invalidate(func)
    return ResolvedOSR(func, continuation, variant, osr_block,
                       cont_block, live_values)


#: signature of the run-time code generator the open-OSR stub invokes:
#: (f, osr-block, env, val) -> continuation function pointer
def _generator_type(cont_fnty: FunctionType) -> FunctionType:
    i8p = T.ptr(T.i8)
    return FunctionType(PointerType(cont_fnty), [i8p, i8p, i8p, i8p])


def build_open_osr_stub(
    func: Function,
    osr_source_block: BasicBlock,
    live_values: Sequence[Value],
    generator: Callable,
    env: Any,
    engine,
    stub_name: Optional[str] = None,
    gen_function: Optional[Function] = None,
    gen_block: Optional[BasicBlock] = None,
) -> Function:
    """Build ``f_stub`` (Figure 6).

    The stub receives ``(i8* val, live values...)``; it calls the code
    generator through a function pointer baked in as an ``inttoptr``
    constant, passing three more baked-in ``i8*`` handles — the base
    function, the OSR source block, and the code-generation environment —
    plus the forwarded ``val``.  It then tail-calls the continuation the
    generator returned, forwarding the live values.

    ``generator(f, block, env, val)`` runs in the host; it must return an
    IR :class:`Function` (the continuation) or a callable.

    Stub construction is traced as an ``osr.open_stub`` span on the
    engine's telemetry, and every run-time invocation of the generator
    (i.e. every firing of the open OSR point) emits an ``osr.fire``
    instant with ``kind: "open"``.
    """
    tel = _telemetry_for(engine)
    with tel.span(EV.OSR_OPEN_STUB, function=func.name):
        return _build_open_osr_stub(
            func, osr_source_block, live_values, generator, env, engine,
            stub_name, gen_function, gen_block,
        )


def _make_generator_wrapper(generator, engine, func_name):
    """Wrap a host code generator for invocation from stub IR: emit the
    ``osr.fire`` instant, unwrap handle arguments, and coerce the result
    to an engine-callable."""

    def generator_wrapper(f_obj, block_obj, env_obj, val):
        tel = getattr(engine, "telemetry", None)
        if tel is not None and tel.enabled:
            tel.event(EV.OSR_FIRE, kind="open", function=func_name)
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

    return generator_wrapper


def _build_open_osr_stub(
    func: Function,
    osr_source_block: BasicBlock,
    live_values: Sequence[Value],
    generator: Callable,
    env: Any,
    engine,
    stub_name: Optional[str],
    gen_function: Optional[Function],
    gen_block: Optional[BasicBlock],
) -> Function:
    module = func.module
    cont_fnty = FunctionType(
        func.return_type, [v.type for v in live_values]
    )
    gen_fnty = _generator_type(cont_fnty)
    i8p = T.ptr(T.i8)

    generator_wrapper = _make_generator_wrapper(generator, engine, func.name)
    gen_handle = engine.object_table.intern(
        engine.add_native(f"osr.gen.{func.name}", generator_wrapper)
    )
    func_handle = engine.object_table.intern(
        gen_function if gen_function is not None else func
    )
    block_handle = engine.object_table.intern(
        gen_block if gen_block is not None else osr_source_block
    )
    env_handle = engine.object_table.intern(env)

    stub_params = [i8p] + [v.type for v in live_values]
    stub_arg_names = ["val"] + [f"{v.name or 'live'}_osr" for v in live_values]
    # deduplicate argument names
    seen = set()
    for i, nm in enumerate(stub_arg_names):
        candidate, k = nm, 1
        while candidate in seen:
            candidate = f"{nm}{k}"
            k += 1
        seen.add(candidate)
        stub_arg_names[i] = candidate
    stub = Function(
        FunctionType(func.return_type, stub_params),
        module.unique_name(stub_name or f"{func.name}stub"),
        stub_arg_names,
    )
    module.add_function(stub)

    entry = BasicBlock("entry", stub)
    builder = IRBuilder(entry)
    gen_ptr = ConstantIntToPtr(PointerType(gen_fnty), gen_handle)
    cont_func = builder.call_indirect(
        gen_ptr,
        [
            ConstantIntToPtr(i8p, func_handle),
            ConstantIntToPtr(i8p, block_handle),
            ConstantIntToPtr(i8p, env_handle),
            stub.args[0],
        ],
        "cont.func",
    )
    call = builder.call_indirect(
        cont_func, list(stub.args[1:]), "osr.res", tail=True
    )
    if func.return_type.is_void:
        builder.ret_void()
    else:
        builder.ret(call)
    verify_function(stub)
    return stub


def insert_open_osr_point(
    func: Function,
    location: Instruction,
    condition: OSRCondition,
    generator: Callable,
    engine,
    env: Any = None,
    val: Optional[Value] = None,
    pass_pristine_copy: bool = True,
    use_stub: bool = True,
    verify: bool = True,
    am=None,
    scalarize: bool = False,
) -> OpenOSR:
    """Insert an open OSR point before ``location`` (Figure 3).

    ``generator(f, block, env, val)`` is invoked in the host when the OSR
    fires; it receives the base function, the block the OSR fired from,
    the caller-supplied environment object, and the run-time value of
    ``val`` (an ``i8*``-compatible live value, or null).  It must return
    the continuation :class:`Function` to transfer to.

    With ``pass_pristine_copy`` (the default) the ``f`` handed to the
    generator is a clone of the function *before* the OSR machinery was
    added, so continuations derived from it carry no counter state —
    matching the paper's Figure 7, where the continuation is free of
    instrumentation.  Pass ``False`` to hand the generator the live,
    instrumented function instead (useful when the generator wants to
    keep or re-arm OSR points in the variant).

    Insertion is traced as an ``osr.insert`` span (kind ``open``) on the
    engine's telemetry; the enclosed stub construction contributes a
    nested ``osr.open_stub`` span.  With ``scalarize=True`` the SROA
    pass runs first so the captured live set (and hence the stub and
    continuation signatures) reflects post-scalarization liveness; the
    ``location`` must survive the rewrite.  The final live width is
    recorded as an ``osr.state_size`` instant and the ``osr.live_slots``
    gauge.
    """
    tel = _telemetry_for(engine)
    with tel.span(EV.OSR_INSERT, function=func.name, kind="open"):
        if scalarize:
            _scalarize_for_osr(func, _manager_for(engine, am))
        return _insert_open_osr_point(
            func, location, condition, generator, engine, env, val,
            pass_pristine_copy, use_stub, verify, _manager_for(engine, am),
        )


def _insert_open_osr_point(
    func: Function,
    location: Instruction,
    condition: OSRCondition,
    generator: Callable,
    engine,
    env: Any,
    val: Optional[Value],
    pass_pristine_copy: bool,
    use_stub: bool,
    verify: bool,
    am,
) -> OpenOSR:
    module = func.module
    if module is None:
        raise OSRError(f"@{func.name} is not inside a module")
    if val is not None and not val.type.is_pointer:
        raise OSRError(f"open-OSR val must be pointer-typed, got {val.type}")

    live_values = am.liveness(func).live_before(location)
    _note_state_size(
        _telemetry_for(engine), engine, func, "open", len(live_values)
    )
    check_block = location.parent
    cont_block = split_block_at(location)

    if pass_pristine_copy:
        pristine, pristine_vmap = clone_function(
            func, module.unique_name(f"{func.name}.orig")
        )
        gen_function: Function = pristine
        gen_block: BasicBlock = pristine_vmap[cont_block]
    else:
        gen_function = func
        gen_block = cont_block

    stub: Optional[Function] = None
    if use_stub:
        stub = build_open_osr_stub(
            func, cont_block, live_values, generator, env, engine,
            gen_function=gen_function, gen_block=gen_block,
        )

    osr_block = _emit_osr_check(func, check_block, cont_block, condition)
    builder = IRBuilder(osr_block)
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
        call = _emit_inline_generation(
            builder, func, live_values, generator, env, engine,
            gen_function, gen_block, val_i8,
        )
    if func.return_type.is_void:
        builder.ret_void()
    else:
        builder.ret(call)
    condition.finalize(func)

    func.assign_names()
    if verify:
        verify_function(func)
    engine.invalidate(func)
    return OpenOSR(func, stub, osr_block, cont_block, live_values)


def _emit_inline_generation(builder, func, live_values, generator, env,
                            engine, gen_function, gen_block, val_i8):
    """Emit the generator call + continuation call directly (no stub)."""
    i8p = T.ptr(T.i8)
    cont_fnty = FunctionType(
        func.return_type, [v.type for v in live_values]
    )
    gen_fnty = _generator_type(cont_fnty)

    generator_wrapper = _make_generator_wrapper(generator, engine, func.name)
    gen_handle = engine.object_table.intern(
        engine.add_native(f"osr.gen.{func.name}", generator_wrapper)
    )
    gen_ptr = ConstantIntToPtr(PointerType(gen_fnty), gen_handle)
    cont_func = builder.call_indirect(
        gen_ptr,
        [
            ConstantIntToPtr(i8p, engine.object_table.intern(gen_function)),
            ConstantIntToPtr(i8p, engine.object_table.intern(gen_block)),
            ConstantIntToPtr(i8p, engine.object_table.intern(env)),
            val_i8,
        ],
        "cont.func",
    )
    return builder.call_indirect(
        cont_func, list(live_values), "osr.res", tail=True
    )


def remove_osr_point(point, engine=None, am=None) -> Function:
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
        _manager_for(engine, am).invalidate(func)
    return func
