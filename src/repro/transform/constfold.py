"""Constant folding and trivial algebraic simplification.

Folds instructions whose operands are all constants and applies a small
set of identities (x+0, x*1, x*0, x-x, ...).  Semantics match the
interpreter: two's-complement wrap-around on the result type, C-style
truncating signed division.
"""

from __future__ import annotations

import math
import struct
from typing import Optional

from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    CastInst,
    FCmpInst,
    ICmpInst,
    Instruction,
    SelectInst,
)
from ..ir.types import FloatType, IntType
from ..ir.values import ConstantFloat, ConstantInt, Value


def _sdiv(a: int, b: int) -> int:
    """C-style truncating division."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _srem(a: int, b: int) -> int:
    return a - _sdiv(a, b) * b


def fold_int_binop(opcode: str, type: IntType, a: int, b: int) -> Optional[int]:
    """Fold an integer binop over canonical signed values; None if a trap
    (division by zero) or unsupported combination would occur."""
    ua, ub = type.to_unsigned(a), type.to_unsigned(b)
    if opcode == "add":
        return type.wrap(a + b)
    if opcode == "sub":
        return type.wrap(a - b)
    if opcode == "mul":
        return type.wrap(a * b)
    if opcode == "sdiv":
        return None if b == 0 else type.wrap(_sdiv(a, b))
    if opcode == "udiv":
        return None if b == 0 else type.wrap(ua // ub)
    if opcode == "srem":
        return None if b == 0 else type.wrap(_srem(a, b))
    if opcode == "urem":
        return None if b == 0 else type.wrap(ua % ub)
    if opcode == "and":
        return type.wrap(ua & ub)
    if opcode == "or":
        return type.wrap(ua | ub)
    if opcode == "xor":
        return type.wrap(ua ^ ub)
    if opcode == "shl":
        return None if not 0 <= ub < type.bits else type.wrap(ua << ub)
    if opcode == "lshr":
        return None if not 0 <= ub < type.bits else type.wrap(ua >> ub)
    if opcode == "ashr":
        return None if not 0 <= ub < type.bits else type.wrap(a >> ub)
    return None


def float_to_int(value: float) -> int:
    """Total float-to-int front half of fptosi/fptoui.

    ``int()`` raises on non-finite input; LLVM calls that poison.  The
    folder and every execution tier must agree on *some* value, so: NaN
    converts to 0 and the infinities saturate to the 64-bit signed range
    — the destination type's wrap then applies as usual.
    """
    try:
        return int(value)
    except OverflowError:
        return (2**63 - 1) if value > 0 else -(2**63)
    except ValueError:
        return 0


_F32 = struct.Struct("<f")


def round_f32(value: float) -> float:
    """``fptrunc double ... to float``: the nearest IEEE binary32 value,
    as a Python float.  The folder, the oracle and the semantics table's
    ``_f32rt`` all call this one function.  A finite value beyond the
    binary32 range rounds to the infinity of its sign, as IEEE
    round-to-nearest does (``struct`` raises there instead)."""
    try:
        return _F32.unpack(_F32.pack(value))[0]
    except OverflowError:
        return math.copysign(math.inf, value)


def fold_float_binop(opcode: str, a: float, b: float) -> Optional[float]:
    try:
        if opcode == "fadd":
            return a + b
        if opcode == "fsub":
            return a - b
        if opcode == "fmul":
            return a * b
        if opcode == "fdiv":
            return a / b if b != 0.0 else None
        if opcode == "frem":
            return math.fmod(a, b) if b != 0.0 else None
    except (OverflowError, ValueError):
        return None
    return None


def fold_icmp(predicate: str, type: IntType, a: int, b: int) -> bool:
    ua, ub = type.to_unsigned(a), type.to_unsigned(b)
    return {
        "eq": a == b,
        "ne": a != b,
        "slt": a < b,
        "sle": a <= b,
        "sgt": a > b,
        "sge": a >= b,
        "ult": ua < ub,
        "ule": ua <= ub,
        "ugt": ua > ub,
        "uge": ua >= ub,
    }[predicate]


def fold_fcmp(predicate: str, a: float, b: float) -> bool:
    ordered = not (a != a or b != b)  # neither NaN
    return {
        "oeq": ordered and a == b,
        "one": ordered and a != b,
        "olt": ordered and a < b,
        "ole": ordered and a <= b,
        "ogt": ordered and a > b,
        "oge": ordered and a >= b,
        "ord": ordered,
        "uno": not ordered,
    }[predicate]


def _widened_truth(value: Value) -> Optional[Value]:
    """``%c`` when ``value`` is the i1 ``%c`` widened to nonzero / zero
    (``zext i1 %c`` or ``select i1 %c, K, 0`` with a constant K != 0), so
    that testing it against zero again (a front end's ``tobool``) is
    ``%c`` itself and the branch uses the compare directly."""
    if isinstance(value, CastInst) and value.opcode == "zext":
        return value.value if value.value.type.bits == 1 else None
    if isinstance(value, SelectInst):
        on, off = value.true_value, value.false_value
        if (isinstance(on, (ConstantInt, ConstantFloat))
                and type(off) is type(on)
                and on.value == on.value and on.value != 0
                and off.value == 0):
            return value.condition
    return None


def _fold_instruction(inst: Instruction) -> Optional[Value]:
    """Return a replacement constant/value, or None if not foldable."""
    if isinstance(inst, BinaryInst):
        lhs, rhs = inst.lhs, inst.rhs
        if isinstance(inst.type, IntType):
            if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
                folded = fold_int_binop(inst.opcode, inst.type, lhs.value, rhs.value)
                if folded is not None:
                    return ConstantInt(inst.type, folded)
            # identities
            if inst.opcode == "add":
                if isinstance(rhs, ConstantInt) and rhs.value == 0:
                    return lhs
                if isinstance(lhs, ConstantInt) and lhs.value == 0:
                    return rhs
            if inst.opcode == "sub":
                if isinstance(rhs, ConstantInt) and rhs.value == 0:
                    return lhs
                if lhs is rhs:
                    return ConstantInt(inst.type, 0)
            if inst.opcode == "mul":
                for a, b in ((lhs, rhs), (rhs, lhs)):
                    if isinstance(b, ConstantInt):
                        if b.value == 1:
                            return a
                        if b.value == 0:
                            return ConstantInt(inst.type, 0)
            if inst.opcode in ("and", "or"):
                if lhs is rhs:
                    return lhs
            if inst.opcode == "xor" and lhs is rhs:
                return ConstantInt(inst.type, 0)
        elif isinstance(inst.type, FloatType):
            if isinstance(lhs, ConstantFloat) and isinstance(rhs, ConstantFloat):
                folded = fold_float_binop(inst.opcode, lhs.value, rhs.value)
                if folded is not None:
                    return ConstantFloat(inst.type, folded)
    elif isinstance(inst, ICmpInst):
        lhs, rhs = inst.lhs, inst.rhs
        if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
            result = fold_icmp(inst.predicate, lhs.type, lhs.value, rhs.value)
            from ..ir.types import i1

            return ConstantInt(i1, 1 if result else 0)
        if (inst.predicate == "ne" and isinstance(rhs, ConstantInt)
                and rhs.value == 0):
            return _widened_truth(lhs)
    elif isinstance(inst, FCmpInst):
        lhs, rhs = inst.lhs, inst.rhs
        if isinstance(lhs, ConstantFloat) and isinstance(rhs, ConstantFloat):
            result = fold_fcmp(inst.predicate, lhs.value, rhs.value)
            from ..ir.types import i1

            return ConstantInt(i1, 1 if result else 0)
        if (inst.predicate == "one" and isinstance(rhs, ConstantFloat)
                and rhs.value == 0.0):
            return _widened_truth(lhs)
    elif isinstance(inst, SelectInst):
        cond = inst.condition
        if isinstance(cond, ConstantInt):
            return inst.true_value if cond.value else inst.false_value
        if inst.true_value is inst.false_value:
            return inst.true_value
    elif isinstance(inst, CastInst):
        value = inst.value
        if isinstance(value, ConstantInt) and isinstance(inst.type, IntType):
            if inst.opcode in ("trunc", "zext", "sext"):
                src_type = value.type
                if inst.opcode == "zext":
                    return ConstantInt(inst.type, src_type.to_unsigned(value.value))
                return ConstantInt(inst.type, value.value)
        if isinstance(value, ConstantInt) and isinstance(inst.type, FloatType):
            if inst.opcode == "sitofp":
                return ConstantFloat(inst.type, float(value.value))
            if inst.opcode == "uitofp":
                return ConstantFloat(
                    inst.type, float(value.type.to_unsigned(value.value))
                )
        if isinstance(value, ConstantFloat) and isinstance(inst.type, IntType):
            if inst.opcode in ("fptosi", "fptoui"):
                return ConstantInt(inst.type, float_to_int(value.value))
        if isinstance(value, ConstantFloat) and isinstance(inst.type, FloatType):
            if inst.opcode == "fptrunc" and inst.type.bits == 32:
                return ConstantFloat(inst.type, round_f32(value.value))
            if inst.opcode in ("fptrunc", "fpext"):
                return ConstantFloat(inst.type, value.value)
        if inst.opcode == "bitcast" and inst.type == value.type:
            return value
    return None


def fold_constants(func: Function) -> int:
    """Iterate folding to a fixed point; returns replacements made."""
    replaced = 0
    changed = True
    while changed:
        changed = False
        for block in func.blocks:
            for inst in block.instructions:
                replacement = _fold_instruction(inst)
                if replacement is not None and replacement is not inst:
                    inst.replace_all_uses_with(replacement)
                    inst.erase_from_parent()
                    replaced += 1
                    changed = True
    return replaced
