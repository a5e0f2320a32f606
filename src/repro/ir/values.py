"""Core value hierarchy for the repro IR.

Everything an instruction can reference is a :class:`Value`: constants,
function arguments, instructions (whose result is the value), global
objects and basic blocks (as branch targets).  Values track their users so
that transformations such as replace-all-uses-with (RAUW), dead-code
elimination and OSR live-variable rewriting are cheap and safe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from .types import FloatType, IntType, PointerType, Type, i1

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from .function import Function


class Value:
    """Base class of everything that can appear as an operand."""

    __slots__ = ("type", "name", "_uses")

    def __init__(self, type: Type, name: str = ""):
        self.type = type
        self.name = name
        #: list of (user, operand-index) pairs; kept in insertion order
        self._uses: List["Use"] = []

    # -- use tracking -------------------------------------------------------

    @property
    def uses(self) -> List["Use"]:
        return list(self._uses)

    @property
    def users(self) -> List["User"]:
        """Distinct users of this value in first-use order."""
        seen: Dict[int, None] = {}
        out: List[User] = []
        for use in self._uses:
            if id(use.user) not in seen:
                seen[id(use.user)] = None
                out.append(use.user)
        return out

    @property
    def num_uses(self) -> int:
        return len(self._uses)

    def is_used(self) -> bool:
        return bool(self._uses)

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every use of self to use ``new`` instead (RAUW)."""
        if new is self:
            return
        for use in list(self._uses):
            use.user.set_operand(use.index, new)

    # -- display -------------------------------------------------------------

    @property
    def ref(self) -> str:
        """Printable reference, e.g. ``%x``, ``@f``, ``7``."""
        return f"%{self.name}" if self.name else "%<unnamed>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.ref}: {self.type}>"


class Use:
    """A single (user, operand-slot) edge in the use-def graph."""

    __slots__ = ("user", "index")

    def __init__(self, user: "User", index: int):
        self.user = user
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Use {self.user!r}[{self.index}]>"


class User(Value):
    """A value that references other values through operand slots."""

    __slots__ = ("_operands",)

    def __init__(self, type: Type, operands: List[Value], name: str = ""):
        super().__init__(type, name)
        self._operands: List[Value] = []
        for op in operands:
            self._append_operand(op)

    # -- operand plumbing ----------------------------------------------------

    @property
    def operands(self) -> List[Value]:
        return list(self._operands)

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def get_operand(self, index: int) -> Value:
        return self._operands[index]

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        if old is value:
            return
        old._uses[:] = [
            u for u in old._uses if not (u.user is self and u.index == index)
        ]
        self._operands[index] = value
        value._uses.append(Use(self, index))

    def _append_operand(self, value: Value) -> None:
        index = len(self._operands)
        self._operands.append(value)
        value._uses.append(Use(self, index))

    def _pop_operand(self) -> Value:
        """Remove and return the last operand slot."""
        index = len(self._operands) - 1
        value = self._operands.pop()
        value._uses[:] = [
            u for u in value._uses if not (u.user is self and u.index == index)
        ]
        return value

    def drop_all_references(self) -> None:
        """Detach self from all operands (pre-deletion hygiene)."""
        for index, op in enumerate(self._operands):
            op._uses[:] = [
                u for u in op._uses if not (u.user is self and u.index == index)
            ]
        self._operands.clear()

    def replace_uses_of_with(self, old: Value, new: Value) -> None:
        """Replace every operand equal to ``old`` with ``new``."""
        for index, op in enumerate(self._operands):
            if op is old:
                self.set_operand(index, new)


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


class Constant(Value):
    """Base class for immediate values."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return False


class ConstantInt(Constant):
    """An integer immediate, stored in the type's canonical signed range."""

    __slots__ = ("value",)

    def __init__(self, type: IntType, value: int):
        if not isinstance(type, IntType):
            raise TypeError(f"ConstantInt requires an IntType, got {type}")
        super().__init__(type)
        self.value = type.wrap(int(value))

    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def ref(self) -> str:
        if self.type == i1:
            return "true" if self.value else "false"
        return str(self.value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ConstantInt {self.type} {self.value}>"


class ConstantFloat(Constant):
    """A floating-point immediate."""

    __slots__ = ("value",)

    def __init__(self, type: FloatType, value: float):
        if not isinstance(type, FloatType):
            raise TypeError(f"ConstantFloat requires a FloatType, got {type}")
        super().__init__(type)
        self.value = float(value)

    def is_zero(self) -> bool:
        return self.value == 0.0

    @property
    def ref(self) -> str:
        return repr(self.value)


class ConstantNull(Constant):
    """The null pointer of a given pointer type."""

    __slots__ = ()

    def __init__(self, type: PointerType):
        if not isinstance(type, PointerType):
            raise TypeError(f"ConstantNull requires a PointerType, got {type}")
        super().__init__(type)

    def is_zero(self) -> bool:
        return True

    @property
    def ref(self) -> str:
        return "null"


class UndefValue(Constant):
    """An unspecified value of a given type (LLVM ``undef``)."""

    __slots__ = ()

    @property
    def ref(self) -> str:
        return "undef"


class ConstantString(Constant):
    """A byte-string constant used to initialize global arrays (``c"..."``)."""

    __slots__ = ("data",)

    def __init__(self, type: Type, data: bytes):
        super().__init__(type)
        self.data = bytes(data)

    @property
    def ref(self) -> str:
        escaped = "".join(
            chr(b) if 32 <= b < 127 and b not in (34, 92) else f"\\{b:02x}"
            for b in self.data
        )
        return f'c"{escaped}"'


class ConstantArray(Constant):
    """A constant aggregate of element constants."""

    __slots__ = ("elements",)

    def __init__(self, type: Type, elements: List[Constant]):
        super().__init__(type)
        self.elements = list(elements)

    @property
    def ref(self) -> str:
        inner = ", ".join(f"{e.type} {e.ref}" for e in self.elements)
        return f"[{inner}]"


# ---------------------------------------------------------------------------
# Function-scope values
# ---------------------------------------------------------------------------


class Argument(Value):
    """A formal parameter of a function."""

    __slots__ = ("parent", "index")

    def __init__(self, type: Type, name: str, parent: "Function", index: int):
        super().__init__(type, name)
        self.parent = parent
        self.index = index


class GlobalValue(Constant):
    """Base for module-scope objects addressed by ``@name``."""

    __slots__ = ("module",)

    def __init__(self, type: Type, name: str):
        super().__init__(type, name)
        self.module = None

    @property
    def ref(self) -> str:
        return f"@{self.name}"


class GlobalVariable(GlobalValue):
    """A module-level variable; its value is a pointer to the storage."""

    __slots__ = ("value_type", "initializer", "is_constant")

    def __init__(
        self,
        value_type: Type,
        name: str,
        initializer: Optional[Constant] = None,
        is_constant: bool = False,
    ):
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer
        self.is_constant = is_constant

