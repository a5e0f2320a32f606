"""Instruction set of the repro IR.

The instruction vocabulary mirrors the subset of LLVM IR that the OSRKit
paper manipulates: integer/float arithmetic, comparisons, memory access
(alloca/load/store/gep), casts, calls (direct and indirect), phi nodes,
select, and the terminators ret/br/condbr/switch/unreachable.

Instructions are :class:`~repro.ir.values.User` values that live inside a
basic block.  Operand edges are tracked bidirectionally so the OSR passes
can rewrite live values, fix phi nodes and drop dead code safely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .types import (
    ArrayType,
    FunctionType,
    PointerType,
    StructType,
    Type,
    i1,
    void,
)
from .values import Constant, User, Value

if TYPE_CHECKING:  # pragma: no cover
    from .function import BasicBlock


class Instruction(User):
    """Base class of all instructions."""

    __slots__ = ("parent",)

    #: mnemonic used by the printer; overridden per subclass
    opcode: str = "?"

    def __init__(self, type: Type, operands: List[Value], name: str = ""):
        super().__init__(type, operands, name)
        self.parent: Optional["BasicBlock"] = None

    # -- placement ----------------------------------------------------------

    @property
    def function(self):
        return self.parent.parent if self.parent is not None else None

    def erase_from_parent(self) -> None:
        """Unlink from the containing block and drop operand references."""
        if self.parent is not None:
            self.parent.remove(self)
        self.drop_all_references()

    def move_before(self, other: "Instruction") -> None:
        """Relocate this instruction immediately before ``other``."""
        if other.parent is None:
            raise ValueError("target instruction is not in a block")
        if self.parent is not None:
            self.parent.remove(self)
        block = other.parent
        index = block.instructions.index(other)
        block.insert(index, self)

    # -- classification -------------------------------------------------------

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, TerminatorInst)

    @property
    def is_phi(self) -> bool:
        return isinstance(self, PhiInst)

    def has_side_effects(self) -> bool:
        """Conservative: may this instruction write memory / control flow /
        call arbitrary code?  Used by DCE to decide erasability."""
        return isinstance(
            self, (StoreInst, CallInst, IndirectCallInst, TerminatorInst)
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.ref}>"


class TerminatorInst(Instruction):
    """Base of instructions that end a basic block."""

    __slots__ = ()

    def successors(self) -> List["BasicBlock"]:
        raise NotImplementedError

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        """Retarget every edge to ``old`` to point to ``new``."""
        for index, op in enumerate(self._operands):
            if op is old:
                self.set_operand(index, new)


# ---------------------------------------------------------------------------
# Arithmetic and logic
# ---------------------------------------------------------------------------

#: integer binary opcodes and whether they can trap (division by zero)
INT_BINOPS = {
    "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
    "and", "or", "xor", "shl", "lshr", "ashr",
}
FLOAT_BINOPS = {"fadd", "fsub", "fmul", "fdiv", "frem"}


class BinaryInst(Instruction):
    """A two-operand arithmetic/logic instruction, e.g. ``add i64 %a, %b``."""

    __slots__ = ("opcode", "flags")

    def __init__(
        self,
        opcode: str,
        lhs: Value,
        rhs: Value,
        name: str = "",
        flags: Sequence[str] = (),
    ):
        if opcode not in INT_BINOPS and opcode not in FLOAT_BINOPS:
            raise ValueError(f"unknown binary opcode {opcode!r}")
        if lhs.type != rhs.type:
            raise TypeError(
                f"binary operand type mismatch: {lhs.type} vs {rhs.type}"
            )
        super().__init__(lhs.type, [lhs, rhs], name)
        self.opcode = opcode
        #: e.g. ('nsw', 'nuw') — carried for fidelity with LLVM listings
        self.flags = tuple(flags)

    @property
    def lhs(self) -> Value:
        return self.get_operand(0)

    @property
    def rhs(self) -> Value:
        return self.get_operand(1)


ICMP_PREDICATES = {"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}
FCMP_PREDICATES = {"oeq", "one", "olt", "ole", "ogt", "oge", "ord", "uno"}


class ICmpInst(Instruction):
    """Integer/pointer comparison producing an ``i1``."""

    __slots__ = ("predicate",)
    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate {predicate!r}")
        if lhs.type != rhs.type:
            raise TypeError(f"icmp type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(i1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.get_operand(0)

    @property
    def rhs(self) -> Value:
        return self.get_operand(1)


class FCmpInst(Instruction):
    """Floating-point comparison producing an ``i1``."""

    __slots__ = ("predicate",)
    opcode = "fcmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate {predicate!r}")
        if lhs.type != rhs.type:
            raise TypeError(f"fcmp type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(i1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.get_operand(0)

    @property
    def rhs(self) -> Value:
        return self.get_operand(1)


class SelectInst(Instruction):
    """``select i1 %c, T %a, T %b`` — branch-free conditional."""

    __slots__ = ()
    opcode = "select"

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = ""):
        if cond.type != i1:
            raise TypeError(f"select condition must be i1, got {cond.type}")
        if if_true.type != if_false.type:
            raise TypeError(
                f"select arm type mismatch: {if_true.type} vs {if_false.type}"
            )
        super().__init__(if_true.type, [cond, if_true, if_false], name)

    @property
    def condition(self) -> Value:
        return self.get_operand(0)

    @property
    def true_value(self) -> Value:
        return self.get_operand(1)

    @property
    def false_value(self) -> Value:
        return self.get_operand(2)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


class AllocaInst(Instruction):
    """Stack allocation; yields a pointer into the current frame."""

    __slots__ = ("allocated_type", "count")
    opcode = "alloca"

    def __init__(self, allocated_type: Type, name: str = "", count: int = 1):
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type
        self.count = count

    def has_side_effects(self) -> bool:
        # An alloca is erasable only when unused, which generic DCE already
        # requires; it does not observe or mutate other state.
        return False


class LoadInst(Instruction):
    """``load T, T* %p``."""

    __slots__ = ()
    opcode = "load"

    def __init__(self, pointer: Value, name: str = ""):
        if not isinstance(pointer.type, PointerType):
            raise TypeError(f"load requires a pointer, got {pointer.type}")
        super().__init__(pointer.type.pointee, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.get_operand(0)


class StoreInst(Instruction):
    """``store T %v, T* %p``."""

    __slots__ = ()
    opcode = "store"

    def __init__(self, value: Value, pointer: Value):
        if not isinstance(pointer.type, PointerType):
            raise TypeError(f"store requires a pointer, got {pointer.type}")
        if pointer.type.pointee != value.type:
            raise TypeError(
                f"store type mismatch: {value.type} into {pointer.type}"
            )
        super().__init__(void, [value, pointer])

    @property
    def value(self) -> Value:
        return self.get_operand(0)

    @property
    def pointer(self) -> Value:
        return self.get_operand(1)


class GEPInst(Instruction):
    """``getelementptr`` — pointer arithmetic over arrays and structs.

    Follows LLVM semantics: the first index steps the base pointer, further
    indices descend into aggregate types.
    """

    __slots__ = ("inbounds",)
    opcode = "getelementptr"

    def __init__(
        self,
        pointer: Value,
        indices: Sequence[Value],
        name: str = "",
        inbounds: bool = False,
    ):
        if not isinstance(pointer.type, PointerType):
            raise TypeError(f"gep requires a pointer, got {pointer.type}")
        result = self._result_type(pointer.type, indices)
        super().__init__(result, [pointer, *indices], name)
        self.inbounds = inbounds

    @staticmethod
    def _result_type(ptr_type: PointerType, indices: Sequence[Value]) -> Type:
        if not indices:
            raise ValueError("gep requires at least one index")
        current: Type = ptr_type.pointee
        for idx in indices[1:]:
            if isinstance(current, ArrayType):
                current = current.element
            elif isinstance(current, StructType):
                from .values import ConstantInt

                if not isinstance(idx, ConstantInt):
                    raise TypeError("struct gep index must be a constant int")
                current = current.fields[idx.value]
            else:
                raise TypeError(f"cannot index into {current}")
        return PointerType(current)

    @property
    def pointer(self) -> Value:
        return self.get_operand(0)

    @property
    def indices(self) -> List[Value]:
        return self._operands[1:]


# ---------------------------------------------------------------------------
# Casts
# ---------------------------------------------------------------------------

CAST_OPCODES = {
    "bitcast", "inttoptr", "ptrtoint", "trunc", "zext", "sext",
    "fptosi", "sitofp", "fptrunc", "fpext", "uitofp", "fptoui",
}


class CastInst(Instruction):
    """A value-preserving or value-converting cast."""

    __slots__ = ("opcode",)

    def __init__(self, opcode: str, value: Value, to_type: Type, name: str = ""):
        if opcode not in CAST_OPCODES:
            raise ValueError(f"unknown cast opcode {opcode!r}")
        super().__init__(to_type, [value], name)
        self.opcode = opcode

    @property
    def value(self) -> Value:
        return self.get_operand(0)


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


class CallInst(Instruction):
    """Direct call of a known function (or runtime symbol).

    The callee is operand 0, as for :class:`IndirectCallInst`, so a
    function's ``uses`` list its call sites and
    ``replace_all_uses_with`` retargets them."""

    __slots__ = ("is_tail",)
    opcode = "call"

    def __init__(
        self,
        callee,
        args: Sequence[Value],
        name: str = "",
        tail: bool = False,
    ):
        fnty = callee.function_type
        self._check_signature(fnty, args)
        super().__init__(fnty.return_type, [callee, *args], name)
        self.is_tail = tail

    @staticmethod
    def _check_signature(fnty: FunctionType, args: Sequence[Value]) -> None:
        fixed = len(fnty.params)
        if fnty.vararg:
            if len(args) < fixed:
                raise TypeError(
                    f"call passes {len(args)} args, needs at least {fixed}"
                )
        elif len(args) != fixed:
            raise TypeError(f"call passes {len(args)} args, expected {fixed}")
        for i, (param, arg) in enumerate(zip(fnty.params, args)):
            if param != arg.type:
                raise TypeError(
                    f"call argument {i} type mismatch: {arg.type} vs {param}"
                )

    @property
    def callee(self):
        return self._operands[0]

    @property
    def args(self) -> List[Value]:
        return self._operands[1:]


class IndirectCallInst(Instruction):
    """Call through a function pointer, e.g. ``call i32 %c(i8* %x, i8* %y)``."""

    __slots__ = ("is_tail",)
    opcode = "call"

    def __init__(
        self,
        callee: Value,
        args: Sequence[Value],
        name: str = "",
        tail: bool = False,
    ):
        fnty = self._callee_fnty(callee)
        CallInst._check_signature(fnty, args)
        super().__init__(fnty.return_type, [callee, *args], name)
        self.is_tail = tail

    @staticmethod
    def _callee_fnty(callee: Value) -> FunctionType:
        ty = callee.type
        if isinstance(ty, PointerType) and isinstance(ty.pointee, FunctionType):
            return ty.pointee
        raise TypeError(f"indirect call requires function pointer, got {ty}")

    @property
    def callee(self) -> Value:
        return self.get_operand(0)

    @property
    def args(self) -> List[Value]:
        return self._operands[1:]


# ---------------------------------------------------------------------------
# Phi
# ---------------------------------------------------------------------------


class PhiInst(Instruction):
    """SSA φ-node.  Operands are stored as value slots; the matching
    incoming block list is kept side-by-side (blocks are not operands, as
    in LLVM where blocks are a separate use list)."""

    __slots__ = ("_blocks",)
    opcode = "phi"

    def __init__(self, type: Type, name: str = ""):
        super().__init__(type, [], name)
        self._blocks: List["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise TypeError(
                f"phi incoming type mismatch: {value.type} vs {self.type}"
            )
        self._append_operand(value)
        self._blocks.append(block)

    @property
    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        return list(zip(self._operands, self._blocks))

    @property
    def incoming_blocks(self) -> List["BasicBlock"]:
        return list(self._blocks)

    def incoming_value_for(self, block: "BasicBlock") -> Value:
        for value, pred in zip(self._operands, self._blocks):
            if pred is block:
                return value
        raise KeyError(f"no incoming value for block {block.name}")

    def has_incoming_for(self, block: "BasicBlock") -> bool:
        return any(pred is block for pred in self._blocks)

    def set_incoming_block(self, index: int, block: "BasicBlock") -> None:
        self._blocks[index] = block

    def remove_incoming(self, block: "BasicBlock") -> None:
        """Drop every incoming entry from ``block``."""
        keep = [
            (value, pred)
            for value, pred in zip(self._operands, self._blocks)
            if pred is not block
        ]
        while self._operands:
            self._pop_operand()
        self._blocks.clear()
        for value, pred in keep:
            self.add_incoming(value, pred)

    def replace_incoming_block(self, old: "BasicBlock", new: "BasicBlock") -> None:
        for index, pred in enumerate(self._blocks):
            if pred is old:
                self._blocks[index] = new


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


class RetInst(TerminatorInst):
    """``ret T %v`` or ``ret void``."""

    __slots__ = ()
    opcode = "ret"

    def __init__(self, value: Optional[Value] = None):
        super().__init__(void, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self._operands[0] if self._operands else None

    def successors(self) -> List["BasicBlock"]:
        return []


class BranchInst(TerminatorInst):
    """Unconditional branch ``br label %bb``."""

    __slots__ = ()
    opcode = "br"

    def __init__(self, target: "BasicBlock"):
        super().__init__(void, [target])

    @property
    def target(self) -> "BasicBlock":
        return self.get_operand(0)

    def successors(self) -> List["BasicBlock"]:
        return [self.target]


class CondBranchInst(TerminatorInst):
    """Conditional branch ``br i1 %c, label %t, label %f``."""

    __slots__ = ()
    opcode = "br"

    def __init__(self, cond: Value, if_true: "BasicBlock", if_false: "BasicBlock"):
        if cond.type != i1:
            raise TypeError(f"branch condition must be i1, got {cond.type}")
        super().__init__(void, [cond, if_true, if_false])

    @property
    def condition(self) -> Value:
        return self.get_operand(0)

    @property
    def true_target(self) -> "BasicBlock":
        return self.get_operand(1)

    @property
    def false_target(self) -> "BasicBlock":
        return self.get_operand(2)

    def successors(self) -> List["BasicBlock"]:
        return [self.true_target, self.false_target]


class SwitchInst(TerminatorInst):
    """``switch T %v, label %default [ T c1, label %bb1 ... ]``."""

    __slots__ = ()
    opcode = "switch"

    def __init__(
        self,
        value: Value,
        default: "BasicBlock",
        cases: Sequence[Tuple[Constant, "BasicBlock"]] = (),
    ):
        ops: List[Value] = [value, default]
        for const, block in cases:
            if const.type != value.type:
                raise TypeError("switch case type mismatch")
            ops.append(const)
            ops.append(block)
        super().__init__(void, ops)

    @property
    def value(self) -> Value:
        return self.get_operand(0)

    @property
    def default(self) -> "BasicBlock":
        return self.get_operand(1)

    @property
    def cases(self) -> List[Tuple[Constant, "BasicBlock"]]:
        out = []
        for i in range(2, len(self._operands), 2):
            out.append((self._operands[i], self._operands[i + 1]))
        return out

    def add_case(self, const: Constant, block: "BasicBlock") -> None:
        if const.type != self.value.type:
            raise TypeError("switch case type mismatch")
        self._append_operand(const)
        self._append_operand(block)

    def successors(self) -> List["BasicBlock"]:
        return [self.default] + [block for _, block in self.cases]


class UnreachableInst(TerminatorInst):
    """Marks a point that control flow can never reach."""

    __slots__ = ()
    opcode = "unreachable"

    def __init__(self):
        super().__init__(void, [])

    def successors(self) -> List["BasicBlock"]:
        return []
