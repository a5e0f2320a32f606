"""feval optimization via OSR (paper Section 4.2).

Implements the four components the paper adds to McVM:

1. **Analysis pass** (:func:`find_feval_opportunities`) — walks a
   function's IIR and marks loops whose body contains
   ``feval(p, ...)`` where ``p`` is a read-only parameter of the
   enclosing function (the profitable, safely specializable case).
2. **Variable-map tracking** — :class:`FevalOSREnv` snapshots the IIR→IR
   variable map (name, storage class, IR type) at the OSR site; the
   :class:`~repro.mcvm.compiler.IIRCompiler` supplies the alloca map.
3. **OSR inserter** (:func:`insert_feval_osr_point`) — injects an open
   OSR point at the loop header: live IIR variables are loaded in the
   firing block and passed to the stub, the feval target's run-time value
   travels as the stub's ``val``, and everything is then promoted to SSA
   so the instrumented code matches Figure 5's shape.
4. **Optimizer** (:func:`make_feval_optimizer`) — the ``gen`` function
   fired at OSR time: clones the IIR, replaces ``feval(p, ...)`` with
   direct calls to the observed target ``g``, re-runs type inference
   (now free of the boxing poison), lowers to IR, builds the state
   mapping with box/unbox **compensation code** (Figure 9), asks OSRKit
   for the continuation, optimizes it and stores it in the engine.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from ..core.conditions import HotCounterCondition
from ..core.continuation import (
    OSRError,
    StateMap,
    generate_continuation,
    required_landing_state,
)
from ..core.instrument import (
    build_open_osr_stub,
    close_osr_point,
    emit_osr_check,
    open_osr_point,
)
from ..ir import types as T
from ..ir.builder import IRBuilder
from ..ir.function import BasicBlock, Function
from ..ir.instructions import AllocaInst
from ..ir.values import ConstantFloat, ConstantNull, Value
from ..ir.verifier import verify_function
from ..obs import events as EV
from ..transform import optimize_function, promote_memory_to_registers
from . import mcast as M
from .compiler import CompiledVersion, ir_type_of
from .mctypes import BOXED, DOUBLE, HANDLE, TypeInfo
from .runtime import I8P, McFunctionHandleValue


class FevalOpportunity(NamedTuple):
    """A loop eligible for feval specialization."""

    loop_id: int
    handle_param: str       #: the parameter holding the feval target
    feval_count: int        #: feval sites on that parameter in the loop


def find_feval_opportunities(function: M.McFunction) -> List[FevalOpportunity]:
    """Component 1: the IIR analysis pass.

    A loop qualifies when its body contains ``feval(p, ...)`` with ``p``
    a parameter of ``function`` that is never reassigned anywhere in the
    function (so the observed target cannot change between OSR and the
    rest of the loop — this is why the IIR approach needs no guard)."""
    params = set(function.params)
    assigned = {
        stmt.name
        for stmt in M.walk_statements(function.body)
        if isinstance(stmt, M.AssignStmt)
    }
    for stmt in M.walk_statements(function.body):
        if isinstance(stmt, M.ForStmt):
            assigned.add(stmt.var)
    read_only_params = params - assigned

    opportunities: List[FevalOpportunity] = []
    for stmt in M.walk_statements(function.body):
        if not isinstance(stmt, (M.WhileStmt, M.ForStmt)):
            continue
        exprs = [expr for inner in M.walk_statements(stmt.body)
                 for expr in M.walk_expressions(inner)]
        if isinstance(stmt, M.WhileStmt):
            # also scan the loop condition itself
            exprs.extend(M.walk_expressions(stmt.cond))
        counts: Dict[str, int] = {}
        for expr in exprs:
            if (isinstance(expr, M.FevalExpr)
                    and isinstance(expr.target, M.Ident)
                    and expr.target.name in read_only_params):
                counts[expr.target.name] = counts.get(expr.target.name, 0) + 1
        for param, count in counts.items():
            opportunities.append(
                FevalOpportunity(stmt.loop_id, param, count)
            )
    return opportunities


class FevalOSREnv:
    """Component 2: the IIR↔IR state snapshot at an OSR site."""

    def __init__(self, function: M.McFunction, info: TypeInfo,
                 loop_id: int, handle_param: str,
                 var_order: List[str], var_classes: Dict[str, str],
                 var_types: List[T.Type]):
        self.function = function          #: IIR of the instrumented f
        self.info = info                  #: type info of the base version
        self.loop_id = loop_id
        self.handle_param = handle_param
        #: transfer order of live IIR variables (stub parameter order)
        self.var_order = var_order
        self.var_classes = var_classes
        self.var_types = var_types


class FevalOSRPoint(NamedTuple):
    function: Function
    stub: Function
    env: FevalOSREnv


def insert_feval_osr_point(
    vm,
    compiled: CompiledVersion,
    opportunity: FevalOpportunity,
    threshold: int = 2,
) -> FevalOSRPoint:
    """Component 3: inject the open OSR point at the hot loop's header.

    Must run on the alloca-form function (before mem2reg); it promotes
    everything to SSA itself once the machinery is in place.

    Insertion is traced as an ``osr.insert`` span (kind ``feval``) on the
    engine's telemetry.
    """
    func = compiled.ir_function
    engine = vm.engine
    with engine.telemetry.span(EV.OSR_INSERT, function=func.name,
                               kind="feval"):
        return _insert_feval_osr_point(vm, compiled, opportunity, threshold)


def _insert_feval_osr_point(
    vm,
    compiled: CompiledVersion,
    opportunity: FevalOpportunity,
    threshold: int,
) -> FevalOSRPoint:
    func = compiled.ir_function
    engine = vm.engine
    header = compiled.loop_headers.get(opportunity.loop_id)
    if header is None:
        raise OSRError(
            f"@{func.name} has no loop {opportunity.loop_id}"
        )
    location = header.instructions[header.first_non_phi_index]

    # the state this point transfers is the IIR frame: one slot per
    # variable, loaded in the firing block; the loads become the SSA
    # values live at the OSR point once the function is lifted
    var_order = sorted(compiled.var_slots)
    site = emit_osr_check(
        open_osr_point(
            func, location, "feval", engine,
            live_values=[compiled.var_slots[name] for name in var_order]),
        HotCounterCondition(threshold),
    )
    builder = site.builder
    loads: List[Value] = []
    var_types: List[T.Type] = []
    handle_value: Optional[Value] = None
    for name, slot in zip(var_order, site.live_values):
        value = builder.load(slot, f"{name}.live")
        loads.append(value)
        var_types.append(value.type)
        if name == opportunity.handle_param:
            handle_value = value
    if handle_value is None:
        raise OSRError(
            f"handle parameter {opportunity.handle_param!r} has no slot"
        )

    env = FevalOSREnv(
        vm.functions[_iir_name(func.name)], compiled.info,
        opportunity.loop_id, opportunity.handle_param,
        var_order, dict(compiled.info.var_classes), var_types,
    )
    generator = make_feval_optimizer(vm, env)
    stub = build_open_osr_stub(
        func, site.continuation_block, loads, generator, env, engine,
    )
    call = builder.call(stub, [handle_value] + loads, "osr.res", tail=True)
    close_osr_point(site, call, verify=False)
    # lift the frame into SSA form: the osr block's loads melt into the
    # values live at the loop header
    promote_memory_to_registers(func, am=engine.analysis)
    func.assign_names()
    verify_function(func)
    engine.invalidate(func)
    return FevalOSRPoint(func, stub, env)


def _iir_name(ir_name: str) -> str:
    """Recover the MATLAB function name from a version's IR name."""
    return ir_name.split("__", 1)[0]


def specialize_feval_to_direct(function: M.McFunction, handle_param: str,
                               target_name: str) -> M.McFunction:
    """Component 4a: clone the IIR and replace ``feval(p, ...)`` with
    direct calls to the observed target."""
    clone = function.clone()
    clone.name = f"{function.name}_spec_{target_name}"

    def rewrite(expr: M.Expr) -> M.Expr:
        if isinstance(expr, M.FevalExpr):
            target = rewrite(expr.target)
            args = [rewrite(a) for a in expr.args]
            if isinstance(target, M.Ident) and target.name == handle_param:
                return M.CallExpr(target_name, args, expr.line)
            return M.FevalExpr(target, args, expr.line)
        if isinstance(expr, M.UnaryOp):
            expr.operand = rewrite(expr.operand)
            return expr
        if isinstance(expr, M.BinOp):
            expr.lhs = rewrite(expr.lhs)
            expr.rhs = rewrite(expr.rhs)
            return expr
        if isinstance(expr, M.CallExpr):
            expr.args = [rewrite(a) for a in expr.args]
            return expr
        return expr

    def rewrite_body(body: List[M.Stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, M.AssignStmt):
                stmt.value = rewrite(stmt.value)
            elif isinstance(stmt, M.ExprStmt):
                stmt.expr = rewrite(stmt.expr)
            elif isinstance(stmt, M.IfStmt):
                stmt.cond = rewrite(stmt.cond)
                rewrite_body(stmt.body)
                if stmt.orelse:
                    rewrite_body(stmt.orelse)
            elif isinstance(stmt, M.WhileStmt):
                stmt.cond = rewrite(stmt.cond)
                rewrite_body(stmt.body)
            elif isinstance(stmt, M.ForStmt):
                stmt.lo = rewrite(stmt.lo)
                if stmt.step is not None:
                    stmt.step = rewrite(stmt.step)
                stmt.hi = rewrite(stmt.hi)
                rewrite_body(stmt.body)

    rewrite_body(clone.body)
    return clone


def make_feval_optimizer(vm, env: FevalOSREnv):
    """Component 4: the ``gen`` callback fired when the OSR triggers."""

    def optimizer(f_ir, osr_block, env_obj, val):
        engine = vm.engine
        tel = engine.telemetry
        if not isinstance(val, McFunctionHandleValue):
            tel.event(EV.FEVAL_GUARD_FAIL, function=env.function.name,
                      reason=f"non-handle val {type(val).__name__}")
            return _guard_fail_deopt(f_ir)
        target_name = val.name

        def build():
            vm.stats["feval_optimizations"] += 1
            with tel.span(EV.FEVAL_SPECIALIZE, function=env.function.name,
                          target=target_name, loop=env.loop_id):
                # 4a: profile-driven IIR specialization
                specialized = specialize_feval_to_direct(
                    env.function, env.handle_param, target_name)
                # re-run type inference: direct calls let the engine
                # infer concrete types where feval forced boxing
                info = vm.inference.infer(specialized, env.info.arg_classes)
                # 4b: the continuation of the optimized IIR
                return _continuation_of(specialized, info, specialized.name)

        # 4c: code caching, in the engine's continuation store
        optimizations = vm.stats["feval_optimizations"]
        code = engine.continuation(
            (env.function.name, env.loop_id, target_name,
             env.info.arg_classes), (f_ir,), build)
        if vm.stats["feval_optimizations"] == optimizations:  # no build ran
            vm.stats["feval_cache_hits"] += 1
            tel.event(EV.FEVAL_CACHE_HIT, function=env.function.name,
                      target=target_name)
        return code

    def _continuation_of(iir, info, ir_name):
        """Lower ``iir`` to IR (alloca form, no OSR inside) under the base
        version's return ABI, so the result is a drop-in replacement, and
        build the optimized continuation landing at this loop's header;
        returns its handle, the callable the open-OSR stub enters."""
        variant = vm.compile_iir_raw(
            iir, info, ir_name=vm.module.unique_name(ir_name),
            forced_return_class=env.info.return_class,
        )
        landing = variant.loop_headers[env.loop_id]

        # state mapping with compensation: rebuild each live frame slot,
        # unboxing/boxing across representation changes (Figure 9)
        mapping = _build_state_mapping(vm, env, variant, landing)

        am = vm.engine.analysis
        continuation = generate_continuation(
            variant.ir_function, landing,
            _live_value_specs(env), mapping,
            name=f"{variant.ir_function.name}_cont",
            module=vm.module, telemetry=vm.engine.telemetry, am=am,
        )
        promote_memory_to_registers(continuation, am=am)
        optimize_function(continuation, "optimized", am=am)
        vm.engine.invalidate(continuation)
        return vm.engine.handle_for(continuation)

    def _guard_fail_deopt(f_ir):
        """The guard_fail path: instead of unwinding to the interpreter
        tier, OSR-exit into a (stored) continuation of the *unspecialized*
        version — execution resumes mid-loop with feval going through the
        generic boxed dispatcher, keeping all loop progress made so far."""
        tel = vm.engine.telemetry
        name = env.function.name
        guard = f"feval:{name}#loop{env.loop_id}"
        vm.stats["feval_deopts"] += 1
        tel.event(EV.DEOPT_GUARD_FAIL, guard=guard, function=name)
        code = vm.engine.continuation(
            (guard, name, env.info.arg_classes), (f_ir,),
            lambda: _continuation_of(env.function, env.info, f"{name}_deopt"))
        tel.event(EV.DEOPT_EXIT, guard=guard, target=name, mode="external")
        return code

    return optimizer


def _live_value_specs(env: FevalOSREnv) -> List[Value]:
    """Lightweight (name, type) carriers defining the continuation
    signature — it must match the stub's, built from the original live
    loads."""
    return [
        Value(ty, name) for name, ty in zip(env.var_order, env.var_types)
    ]


def _build_state_mapping(vm, env: FevalOSREnv, variant: CompiledVersion,
                         landing: BasicBlock) -> StateMap:
    """Compensation code builder: one slot rebuilder per landing value.

    Every value live at the landing block of the (alloca-form) variant is
    a frame slot; the compensation entry block allocates a fresh slot and
    fills it from the transferred live value, unboxing (``mc_unbox``,
    the stand-in for ``MatrixF64Obj::getScalarVal``) or boxing as the
    representation changed between the versions — or zero-initializing
    slots for variables that are live at L' but had no value at L.
    """
    index_of = {name: i for i, name in enumerate(env.var_order)}
    slot_names = {slot: name for name, slot in variant.var_slots.items()}
    mapping: StateMap = {}

    for value in required_landing_state(variant.ir_function, landing,
                                        am=vm.engine.analysis):
        if not isinstance(value, AllocaInst):
            raise OSRError(
                f"unexpected non-alloca live value %{value.name} at "
                f"landing %{landing.name} of @{variant.ir_function.name}"
            )
        var_name = slot_names.get(value)
        if var_name is None:
            raise OSRError(
                f"landing-live alloca %{value.name} is not a frame slot"
            )
        mapping[value] = _slot_rebuilder(
            vm, var_name, variant.info.var_classes[var_name],
            env.var_classes.get(var_name), index_of.get(var_name))
    return mapping


def _slot_rebuilder(vm, var_name: str, variant_class: str,
                    source_class: Optional[str], source_index: Optional[int]):
    """Compensation emitter for one frame slot."""
    from .runtime import declare_runtime

    def emit(builder: IRBuilder, params):
        slot = builder.alloca(ir_type_of(variant_class), f"{var_name}.slot")
        if source_index is None or source_class is None:
            # live at L' but not at L: fresh default value
            if variant_class == DOUBLE:
                builder.store(ConstantFloat(T.f64, 0.0), slot)
            else:
                builder.store(ConstantNull(I8P), slot)
            return slot
        incoming = params[source_index]
        if variant_class == source_class or (
                variant_class in (BOXED, HANDLE)
                and source_class in (BOXED, HANDLE)):
            builder.store(incoming, slot)
        elif variant_class == DOUBLE and source_class in (BOXED, HANDLE):
            unbox = declare_runtime(vm.module, "mc_unbox")
            unboxed = builder.call(unbox, [incoming],
                                   f"castUNKtoMF64_{var_name}")
            builder.store(unboxed, slot)
        elif variant_class in (BOXED, HANDLE) and source_class == DOUBLE:
            box = declare_runtime(vm.module, "mc_box")
            boxed = builder.call(box, [incoming],
                                 f"castMF64toUNK_{var_name}")
            builder.store(boxed, slot)
        else:
            raise OSRError(
                f"cannot map %{var_name}: {source_class} -> {variant_class}"
            )
        return slot

    return emit
