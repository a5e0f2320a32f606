"""IRBuilder — convenience factory for emitting instructions.

Mirrors LLVM's ``IRBuilder``: it tracks an insertion point (a basic block,
and optionally a position within it) and provides one method per
instruction.  Constant-folding of trivial cases is *not* done here; the
builder emits exactly what it is asked so tests can rely on structure.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from . import types as T
from .function import BasicBlock, Function
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
    UnreachableInst,
)
from .values import Constant, ConstantFloat, ConstantInt, ConstantNull, Value


class IRBuilder:
    """Emit instructions at a movable insertion point."""

    def __init__(self, block: Optional[BasicBlock] = None):
        self._block: Optional[BasicBlock] = block
        #: emit before this instruction (None = append at end); anchoring
        #: to the instruction, not its index, keeps the point where it was
        #: put when someone else inserts above it (a phi placement)
        self._anchor: Optional[Instruction] = None
        self._index = 0  # where the anchor was last seen

    # -- insertion point -----------------------------------------------------

    @property
    def block(self) -> BasicBlock:
        if self._block is None:
            raise ValueError("IRBuilder has no insertion point")
        return self._block

    @property
    def function(self) -> Function:
        return self.block.parent

    def position_at_end(self, block: BasicBlock) -> "IRBuilder":
        self._block = block
        self._anchor = None
        return self

    def position_before(self, inst: Instruction) -> "IRBuilder":
        if inst.parent is None:
            raise ValueError("instruction is not in a block")
        self._block = inst.parent
        self._anchor = inst
        return self

    def position_at_start(self, block: BasicBlock) -> "IRBuilder":
        """Position after any leading phis (the first valid insertion slot)."""
        index = block.first_non_phi_index
        if index == len(block):
            return self.position_at_end(block)
        self._index = index
        return self.position_before(block.instructions[index])

    def _insert(self, inst: Instruction) -> Instruction:
        if self._anchor is None:
            self.block.append(inst)
        else:
            index = self.block.index(self._anchor, self._index)
            self.block.insert(index, inst)
            self._index = index + 1
        return inst

    # -- constants ------------------------------------------------------------

    @staticmethod
    def const_int(type: T.IntType, value: int) -> ConstantInt:
        return ConstantInt(type, value)

    @staticmethod
    def const_i64(value: int) -> ConstantInt:
        return ConstantInt(T.i64, value)

    @staticmethod
    def const_i32(value: int) -> ConstantInt:
        return ConstantInt(T.i32, value)

    @staticmethod
    def const_i1(value: bool) -> ConstantInt:
        return ConstantInt(T.i1, 1 if value else 0)

    @staticmethod
    def const_double(value: float) -> ConstantFloat:
        return ConstantFloat(T.f64, value)

    @staticmethod
    def const_null(type: T.PointerType) -> ConstantNull:
        return ConstantNull(type)

    # -- arithmetic -------------------------------------------------------------

    def _binop(self, opcode: str, lhs: Value, rhs: Value, name: str,
               flags: Sequence[str] = ()) -> BinaryInst:
        return self._insert(BinaryInst(opcode, lhs, rhs, name, flags))

    def add(self, lhs: Value, rhs: Value, name: str = "",
            flags: Sequence[str] = ()) -> BinaryInst:
        return self._binop("add", lhs, rhs, name, flags)

    def sub(self, lhs: Value, rhs: Value, name: str = "",
            flags: Sequence[str] = ()) -> BinaryInst:
        return self._binop("sub", lhs, rhs, name, flags)

    def mul(self, lhs: Value, rhs: Value, name: str = "",
            flags: Sequence[str] = ()) -> BinaryInst:
        return self._binop("mul", lhs, rhs, name, flags)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("sdiv", lhs, rhs, name)

    def udiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("udiv", lhs, rhs, name)

    def srem(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("srem", lhs, rhs, name)

    def urem(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("urem", lhs, rhs, name)

    def and_(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("and", lhs, rhs, name)

    def or_(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("or", lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("xor", lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("shl", lhs, rhs, name)

    def lshr(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("lshr", lhs, rhs, name)

    def ashr(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("ashr", lhs, rhs, name)

    def fadd(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("fadd", lhs, rhs, name)

    def fsub(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("fsub", lhs, rhs, name)

    def fmul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("fmul", lhs, rhs, name)

    def fdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("fdiv", lhs, rhs, name)

    def frem(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._binop("frem", lhs, rhs, name)

    def neg(self, value: Value, name: str = "") -> BinaryInst:
        zero = ConstantInt(value.type, 0)
        return self.sub(zero, value, name)

    def fneg(self, value: Value, name: str = "") -> BinaryInst:
        zero = ConstantFloat(value.type, 0.0)
        return self.fsub(zero, value, name)

    def not_(self, value: Value, name: str = "") -> BinaryInst:
        ones = ConstantInt(value.type, -1 if value.type.bits > 1 else 1)
        return self.xor(value, ones, name)

    # -- comparisons ---------------------------------------------------------------

    def icmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> ICmpInst:
        return self._insert(ICmpInst(predicate, lhs, rhs, name))

    def fcmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> FCmpInst:
        return self._insert(FCmpInst(predicate, lhs, rhs, name))

    def select(self, cond: Value, if_true: Value, if_false: Value,
               name: str = "") -> SelectInst:
        return self._insert(SelectInst(cond, if_true, if_false, name))

    def guard(self, cond: Value, guard_id: str,
              live_values: Sequence[Value] = (),
              forced: bool = False) -> GuardInst:
        return self._insert(GuardInst(cond, guard_id, live_values, forced))

    # -- memory -----------------------------------------------------------------------

    def alloca(self, type: T.Type, name: str = "", count: int = 1) -> AllocaInst:
        return self._insert(AllocaInst(type, name, count))

    def load(self, pointer: Value, name: str = "") -> LoadInst:
        return self._insert(LoadInst(pointer, name))

    def store(self, value: Value, pointer: Value) -> StoreInst:
        return self._insert(StoreInst(value, pointer))

    def gep(self, pointer: Value, indices: Sequence[Union[Value, int]],
            name: str = "", inbounds: bool = False) -> GEPInst:
        resolved: List[Value] = [
            ConstantInt(T.i64, idx) if isinstance(idx, int) else idx
            for idx in indices
        ]
        return self._insert(GEPInst(pointer, resolved, name, inbounds))

    # -- casts -----------------------------------------------------------------------

    def cast(self, opcode: str, value: Value, to_type: T.Type,
             name: str = "") -> CastInst:
        return self._insert(CastInst(opcode, value, to_type, name))

    def bitcast(self, value: Value, to_type: T.Type, name: str = "") -> CastInst:
        return self.cast("bitcast", value, to_type, name)

    def inttoptr(self, value: Value, to_type: T.Type, name: str = "") -> CastInst:
        return self.cast("inttoptr", value, to_type, name)

    def ptrtoint(self, value: Value, to_type: T.Type, name: str = "") -> CastInst:
        return self.cast("ptrtoint", value, to_type, name)

    def trunc(self, value: Value, to_type: T.Type, name: str = "") -> CastInst:
        return self.cast("trunc", value, to_type, name)

    def zext(self, value: Value, to_type: T.Type, name: str = "") -> CastInst:
        return self.cast("zext", value, to_type, name)

    def sext(self, value: Value, to_type: T.Type, name: str = "") -> CastInst:
        return self.cast("sext", value, to_type, name)

    def sitofp(self, value: Value, to_type: T.Type, name: str = "") -> CastInst:
        return self.cast("sitofp", value, to_type, name)

    def fptosi(self, value: Value, to_type: T.Type, name: str = "") -> CastInst:
        return self.cast("fptosi", value, to_type, name)

    # -- calls -----------------------------------------------------------------------

    def call(self, callee, args: Sequence[Value], name: str = "",
             tail: bool = False) -> CallInst:
        return self._insert(CallInst(callee, args, name, tail))

    def call_indirect(self, callee: Value, args: Sequence[Value],
                      name: str = "", tail: bool = False) -> IndirectCallInst:
        return self._insert(IndirectCallInst(callee, args, name, tail))

    # -- phi -------------------------------------------------------------------------

    def phi(self, type: T.Type, name: str = "",
            incoming: Sequence[Tuple[Value, BasicBlock]] = ()) -> PhiInst:
        node = PhiInst(type, name)
        # phis must stay grouped at the top of the block
        self.block.insert(self.block.first_non_phi_index, node)
        for value, block in incoming:
            node.add_incoming(value, block)
        return node

    # -- terminators --------------------------------------------------------------------

    def ret(self, value: Optional[Value] = None) -> RetInst:
        return self._insert(RetInst(value))

    def ret_void(self) -> RetInst:
        return self._insert(RetInst(None))

    def br(self, target: BasicBlock) -> BranchInst:
        return self._insert(BranchInst(target))

    def cond_br(self, cond: Value, if_true: BasicBlock,
                if_false: BasicBlock) -> CondBranchInst:
        return self._insert(CondBranchInst(cond, if_true, if_false))

    def switch(self, value: Value, default: BasicBlock,
               cases: Sequence[Tuple[Constant, BasicBlock]] = ()) -> SwitchInst:
        return self._insert(SwitchInst(value, default, cases))

    def unreachable(self) -> UnreachableInst:
        return self._insert(UnreachableInst())
