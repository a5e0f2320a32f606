"""Textual printer for the repro IR (LLVM-flavoured syntax).

The printed form round-trips through :mod:`repro.ir.parser`, which the
property-based tests rely on.  Example output::

    define i32 @isord(i64* %v, i64 %n, i32 (i8*, i8*)* %c) {
    entry:
      %t0 = icmp sgt i64 %n, 1
      br i1 %t0, label %loop.body, label %exit
    ...
    }
"""

from __future__ import annotations

from typing import List

from .function import BasicBlock, Function, Module
from .instructions import (
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
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from .values import GlobalVariable, Value


def typed_ref(value: Value) -> str:
    """Operand reference with leading type, e.g. ``i64 %x``."""
    return f"{value.type} {value.ref}"


def print_instruction(inst: Instruction) -> str:
    """Render one instruction (no indentation, no trailing newline)."""
    if isinstance(inst, BinaryInst):
        flags = "".join(f" {f}" for f in inst.flags)
        return (
            f"%{inst.name} = {inst.opcode}{flags} {inst.lhs.type} "
            f"{inst.lhs.ref}, {inst.rhs.ref}"
        )
    if isinstance(inst, ICmpInst):
        return (
            f"%{inst.name} = icmp {inst.predicate} {inst.lhs.type} "
            f"{inst.lhs.ref}, {inst.rhs.ref}"
        )
    if isinstance(inst, FCmpInst):
        return (
            f"%{inst.name} = fcmp {inst.predicate} {inst.lhs.type} "
            f"{inst.lhs.ref}, {inst.rhs.ref}"
        )
    if isinstance(inst, SelectInst):
        return (
            f"%{inst.name} = select i1 {inst.condition.ref}, "
            f"{typed_ref(inst.true_value)}, {typed_ref(inst.false_value)}"
        )
    if isinstance(inst, AllocaInst):
        count = f", i64 {inst.count}" if inst.count != 1 else ""
        return f"%{inst.name} = alloca {inst.allocated_type}{count}"
    if isinstance(inst, LoadInst):
        return f"%{inst.name} = load {inst.type}, {typed_ref(inst.pointer)}"
    if isinstance(inst, StoreInst):
        return f"store {typed_ref(inst.value)}, {typed_ref(inst.pointer)}"
    if isinstance(inst, GEPInst):
        inbounds = " inbounds" if inst.inbounds else ""
        idx = ", ".join(typed_ref(i) for i in inst.indices)
        pointee = inst.pointer.type.pointee
        return (
            f"%{inst.name} = getelementptr{inbounds} {pointee}, "
            f"{typed_ref(inst.pointer)}, {idx}"
        )
    if isinstance(inst, CastInst):
        return (
            f"%{inst.name} = {inst.opcode} {typed_ref(inst.value)} "
            f"to {inst.type}"
        )
    if isinstance(inst, CallInst):
        args = ", ".join(typed_ref(a) for a in inst.args)
        tail = "tail " if inst.is_tail else ""
        callee = inst.callee.ref
        if inst.type.is_void:
            return f"{tail}call void {callee}({args})"
        return f"%{inst.name} = {tail}call {inst.type} {callee}({args})"
    if isinstance(inst, IndirectCallInst):
        args = ", ".join(typed_ref(a) for a in inst.args)
        tail = "tail " if inst.is_tail else ""
        if inst.type.is_void:
            return f"{tail}call void {inst.callee.ref}({args})"
        return f"%{inst.name} = {tail}call {inst.type} {inst.callee.ref}({args})"
    if isinstance(inst, PhiInst):
        pairs = ", ".join(
            f"[ {value.ref}, %{block.name} ]" for value, block in inst.incoming
        )
        return f"%{inst.name} = phi {inst.type} {pairs}"
    if isinstance(inst, RetInst):
        if inst.value is None:
            return "ret void"
        return f"ret {typed_ref(inst.value)}"
    if isinstance(inst, CondBranchInst):
        return (
            f"br i1 {inst.condition.ref}, label %{inst.true_target.name}, "
            f"label %{inst.false_target.name}"
        )
    if isinstance(inst, BranchInst):
        return f"br label %{inst.target.name}"
    if isinstance(inst, SwitchInst):
        cases = " ".join(
            f"{const.type} {const.ref}, label %{block.name}"
            for const, block in inst.cases
        )
        return (
            f"switch {typed_ref(inst.value)}, label %{inst.default.name} "
            f"[ {cases} ]"
        )
    if isinstance(inst, UnreachableInst):
        return "unreachable"
    raise NotImplementedError(f"cannot print {type(inst).__name__}")


def print_block(block: BasicBlock) -> str:
    lines: List[str] = [f"{block.name}:"]
    for inst in block.instructions:
        lines.append(f"  {print_instruction(inst)}")
    return "\n".join(lines)


def print_function(func: Function) -> str:
    func.assign_names()
    params = ", ".join(f"{arg.type} %{arg.name}" for arg in func.args)
    if func.function_type.vararg:
        params = f"{params}, ..." if params else "..."
    header = f"{func.return_type} @{func.name}({params})"
    if func.is_declaration:
        return f"declare {header}"
    body = "\n\n".join(print_block(b) for b in func.blocks)
    return f"define {header} {{\n{body}\n}}"


def print_global(gv: GlobalVariable) -> str:
    kind = "constant" if gv.is_constant else "global"
    if gv.initializer is None:
        return f"@{gv.name} = external {kind} {gv.value_type}"
    return f"@{gv.name} = {kind} {gv.value_type} {gv.initializer.ref}"


def print_module(module: Module) -> str:
    parts: List[str] = []
    for gv in module.globals:
        parts.append(print_global(gv))
    if module.globals:
        parts.append("")
    for func in module.functions:
        parts.append(print_function(func))
        parts.append("")
    return "\n".join(parts).rstrip() + "\n"
