"""repro.ir — a typed SSA intermediate representation.

This package is the LLVM-IR substitute for the OSRKit reproduction: a
compact, verifiable SSA IR with the instruction vocabulary the paper's
machinery manipulates (phis, branches, calls, memory ops, casts), plus a
builder, a textual printer/parser pair, and a verifier.
"""

from .. import lazy_exports
from . import types
from .builder import IRBuilder
from .constexpr import ConstantIntToPtr
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
    GuardInst,
    ICmpInst,
    IndirectCallInst,
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    TerminatorInst,
    UnreachableInst,
)
from .values import (
    Argument,
    Constant,
    ConstantArray,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    GlobalValue,
    GlobalVariable,
    UndefValue,
    Use,
    User,
    Value,
)
from .verifier import VerificationError, verify_function, verify_module

# text in and text out load on first use: a module built by the mini-C
# front-end and run by the JIT never touches either
__getattr__ = lazy_exports(__name__, {
    "parser": ("ParseError", "parse_function", "parse_module"),
    "printer": ("print_function", "print_instruction", "print_module"),
})

__all__ = [
    "types",
    "IRBuilder",
    "BasicBlock",
    "Function",
    "Module",
    "Instruction",
    "TerminatorInst",
    "AllocaInst",
    "BinaryInst",
    "BranchInst",
    "CallInst",
    "CastInst",
    "CondBranchInst",
    "FCmpInst",
    "GEPInst",
    "GuardInst",
    "ICmpInst",
    "IndirectCallInst",
    "LoadInst",
    "PhiInst",
    "RetInst",
    "SelectInst",
    "StoreInst",
    "SwitchInst",
    "UnreachableInst",
    "Value",
    "User",
    "Use",
    "Constant",
    "ConstantInt",
    "ConstantFloat",
    "ConstantNull",
    "ConstantString",
    "ConstantArray",
    "ConstantIntToPtr",
    "UndefValue",
    "Argument",
    "GlobalValue",
    "GlobalVariable",
    "parse_module",
    "parse_function",
    "ParseError",
    "print_module",
    "print_function",
    "print_instruction",
    "verify_function",
    "verify_module",
    "VerificationError",
]
