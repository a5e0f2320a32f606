"""Reference interpreter for the repro IR.

A direct, readable tree-walker used (a) as the semantic oracle the JIT
tier is property-tested against, and (b) as the fallback execution tier —
the role McVM's IIR interpreter plays in the paper's deoptimization
scenarios.

Phi nodes follow LLVM semantics: on entering a block, all phis read their
incoming values for the edge just traversed *simultaneously* (parallel
copy), before any other instruction executes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..ir import types as T
from ..ir.constexpr import ConstantIntToPtr
from ..ir.function import BasicBlock, Function
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    IndirectCallInst,
    Instruction,
    LoadInst,
    RetInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from ..ir.values import (
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    GlobalVariable,
    UndefValue,
    Value,
)
from ..transform.constfold import (
    float_to_int,
    fold_fcmp,
    fold_float_binop,
    fold_icmp,
    fold_int_binop,
    round_f32,
)
from .runtime import (
    NULL,
    MemoryBuffer,
    Trap,
    free,
    gep_offset,
    load_scalar,
    pointer_compare,
    store_scalar,
)


def const_value(engine, value: Constant):
    """Runtime value of a constant operand against ``engine``'s resources
    (object table, function handles, global storage).  The tree-walker
    evaluates it per use; the decoder once, into its frame template."""
    if isinstance(value, ConstantInt):
        return value.value
    if isinstance(value, ConstantFloat):
        return value.value
    if isinstance(value, ConstantNull):
        return NULL
    if isinstance(value, UndefValue):
        if value.type.is_float:
            return 0.0
        if value.type.is_pointer:
            return NULL
        return 0
    if isinstance(value, ConstantIntToPtr):
        return engine.object_table.resolve(value.value)
    if isinstance(value, Function):
        return engine.handle_for(value)
    if isinstance(value, GlobalVariable):
        return engine.global_pointer(value)
    if isinstance(value, ConstantString):
        raise Trap("constant strings are only valid as global initializers")
    raise Trap(f"cannot evaluate constant {value!r}")


class Interpreter:
    """Executes IR functions against an execution engine's environment.

    The engine provides global storage, symbol resolution, and the
    dispatcher for calls (so interpreted and JIT-compiled functions can
    call each other freely).
    """

    def __init__(self, engine):
        self.engine = engine

    # -- operand evaluation ---------------------------------------------------

    def _eval(self, value: Value, frame: Dict[int, Any]):
        if isinstance(value, Constant):
            return const_value(self.engine, value)
        return frame[id(value)]

    # -- main loop ----------------------------------------------------------------

    def run_function(self, func: Function, args: List[Any]):
        """Execute ``func`` with the given runtime argument values."""
        if func.is_declaration:
            raise Trap(f"cannot interpret declaration @{func.name}")
        if len(args) != len(func.args):
            raise Trap(
                f"@{func.name} expects {len(func.args)} args, got {len(args)}"
            )
        frame: Dict[int, Any] = {
            id(arg): value for arg, value in zip(func.args, args)
        }
        allocas: List[MemoryBuffer] = []
        block = func.entry
        prev_block: Optional[BasicBlock] = None

        try:
            while True:
                # parallel phi reads for the traversed edge
                phis = block.phis
                if phis and prev_block is not None:
                    incoming = [
                        self._eval(phi.incoming_value_for(prev_block), frame)
                        for phi in phis
                    ]
                    for phi, val in zip(phis, incoming):
                        frame[id(phi)] = val

                for inst in block.instructions[block.first_non_phi_index:]:
                    result = self._execute(inst, frame, allocas)
                    if isinstance(result, _Return):
                        return result.value
                    if isinstance(result, BasicBlock):
                        prev_block = block
                        block = result
                        break
                    if not inst.type.is_void:
                        frame[id(inst)] = result
                else:
                    raise Trap(f"block %{block.name} fell through")
        finally:
            for buf in allocas:
                free((buf, 0))

    # -- instruction dispatch ---------------------------------------------------------

    def _execute(self, inst: Instruction, frame: Dict[int, Any],
                 allocas: List[MemoryBuffer]):
        ev = self._eval

        if isinstance(inst, BinaryInst):
            a = ev(inst.lhs, frame)
            b = ev(inst.rhs, frame)
            if isinstance(inst.type, T.IntType):
                folded = fold_int_binop(inst.opcode, inst.type, a, b)
                if folded is None:
                    raise Trap(
                        f"integer trap in {inst.opcode} ({a}, {b}) "
                        f"at %{inst.name}"
                    )
                return folded
            folded = fold_float_binop(inst.opcode, a, b)
            if folded is None:
                raise Trap(f"float trap in {inst.opcode} ({a}, {b})")
            return folded

        if isinstance(inst, ICmpInst):
            a = ev(inst.lhs, frame)
            b = ev(inst.rhs, frame)
            if inst.lhs.type.is_pointer:
                return 1 if pointer_compare(inst.predicate, a, b) else 0
            return 1 if fold_icmp(inst.predicate, inst.lhs.type, a, b) else 0

        if isinstance(inst, FCmpInst):
            a = ev(inst.lhs, frame)
            b = ev(inst.rhs, frame)
            return 1 if fold_fcmp(inst.predicate, a, b) else 0

        if isinstance(inst, SelectInst):
            cond = ev(inst.condition, frame)
            return ev(inst.true_value if cond else inst.false_value, frame)

        if isinstance(inst, AllocaInst):
            size = T.size_of(inst.allocated_type) * inst.count
            buf = MemoryBuffer(size, f"alloca.{inst.name}")
            allocas.append(buf)
            return (buf, 0)

        if isinstance(inst, LoadInst):
            pointer = ev(inst.pointer, frame)
            return load_scalar(inst.type, pointer)

        if isinstance(inst, StoreInst):
            value = ev(inst.value, frame)
            pointer = ev(inst.pointer, frame)
            store_scalar(inst.value.type, pointer, value)
            return None

        if isinstance(inst, GEPInst):
            base = ev(inst.pointer, frame)
            indices = [ev(i, frame) for i in inst.indices]
            offset = gep_offset(inst.pointer.type.pointee, indices)
            return (base[0], base[1] + offset)

        if isinstance(inst, CastInst):
            return self._cast(inst, ev(inst.value, frame))

        if isinstance(inst, CallInst):
            args = [ev(a, frame) for a in inst.args]
            result = self.engine._call(inst.callee, args)
            callee = inst.callee
            if (isinstance(inst.type, T.IntType)
                    and isinstance(callee, Function)
                    and callee.is_declaration):
                # a native's int enters canonical, as a computed one is
                return inst.type.wrap(result)
            return result

        if isinstance(inst, IndirectCallInst):
            target = ev(inst.callee, frame)
            args = [ev(a, frame) for a in inst.args]
            result = self.engine.call_value(target, args)
            if isinstance(inst.type, T.IntType):
                # the callee may be a native: its int enters canonical
                return inst.type.wrap(result)
            return result

        if isinstance(inst, RetInst):
            value = ev(inst.value, frame) if inst.value is not None else None
            return _Return(value)

        if isinstance(inst, BranchInst):
            return inst.target

        if isinstance(inst, CondBranchInst):
            cond = ev(inst.condition, frame)
            return inst.true_target if cond else inst.false_target

        if isinstance(inst, SwitchInst):
            value = ev(inst.value, frame)
            for const, target in inst.cases:
                if const.value == value:
                    return target
            return inst.default

        if isinstance(inst, UnreachableInst):
            raise Trap("reached 'unreachable'")

        raise Trap(f"cannot interpret {type(inst).__name__}")

    def _cast(self, inst: CastInst, value):
        opcode = inst.opcode
        to_type = inst.type
        if opcode == "bitcast":
            return value  # pointers/handles are representation-free
        if opcode == "inttoptr":
            return self.engine.object_table.resolve(value)
        if opcode == "ptrtoint":
            return self.engine.object_table.intern(value)
        if opcode in ("trunc", "sext"):
            return to_type.wrap(value)
        if opcode == "zext":
            return to_type.wrap(inst.value.type.to_unsigned(value))
        if opcode == "sitofp":
            return float(value)
        if opcode == "uitofp":
            return float(inst.value.type.to_unsigned(value))
        if opcode == "fptosi":
            return to_type.wrap(float_to_int(value))
        if opcode == "fptoui":
            return to_type.wrap(float_to_int(value))
        if opcode == "fptrunc":
            if to_type.bits == 32:
                return round_f32(value)
            return float(value)
        if opcode == "fpext":
            return float(value)
        raise Trap(f"cannot interpret cast {opcode}")


class _Return:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value
