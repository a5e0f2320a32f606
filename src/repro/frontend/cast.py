"""AST node definitions for the mini-C front-end.

Nodes are plain dataclass-style records; the parser builds them and the
code generator walks them.  Types at this level are :class:`CType`
values, which lower onto :mod:`repro.ir.types` in codegen.
"""

from __future__ import annotations

from typing import List, Optional


class CType:
    """A mini-C type: a base scalar plus pointer depth."""

    __slots__ = ("base", "pointers")

    def __init__(self, base: str, pointers: int = 0):
        self.base = base  # 'long' | 'int' | 'char' | 'double' | 'float' | 'void' | 'unsigned'
        self.pointers = pointers

    def pointer_to(self) -> "CType":
        return CType(self.base, self.pointers + 1)

    def pointee(self) -> "CType":
        if self.pointers == 0:
            raise TypeError(f"{self} is not a pointer")
        return CType(self.base, self.pointers - 1)

    @property
    def is_pointer(self) -> bool:
        return self.pointers > 0

    @property
    def is_float(self) -> bool:
        return self.pointers == 0 and self.base in ("double", "float")

    @property
    def is_void(self) -> bool:
        return self.pointers == 0 and self.base == "void"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CType)
            and self.base == other.base
            and self.pointers == other.pointers
        )

    def __hash__(self) -> int:
        return hash((self.base, self.pointers))

    def __str__(self) -> str:
        return self.base + "*" * self.pointers

    def __repr__(self) -> str:  # pragma: no cover
        return f"CType({self})"


class Node:
    """Base AST node; carries the source line for diagnostics."""

    __slots__ = ("line",)

    def __init__(self, line: int):
        self.line = line


# -- expressions -------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, line: int):
        super().__init__(line)
        self.value = value


class FloatLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float, line: int):
        super().__init__(line)
        self.value = value


class StringLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: bytes, line: int):
        super().__init__(line)
        self.value = value


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str, line: int):
        super().__init__(line)
        self.name = name


class Unary(Expr):
    """op in {'-', '!', '~', '*', '&', '++', '--', 'p++', 'p--'}."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, line: int):
        super().__init__(line)
        self.op = op
        self.operand = operand


class Binary(Expr):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr, line: int):
        super().__init__(line)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class Assign(Expr):
    """op is '=' or a compound assignment like '+='."""

    __slots__ = ("op", "target", "value")

    def __init__(self, op: str, target: Expr, value: Expr, line: int):
        super().__init__(line)
        self.op = op
        self.target = target
        self.value = value


class Ternary(Expr):
    __slots__ = ("cond", "if_true", "if_false")

    def __init__(self, cond: Expr, if_true: Expr, if_false: Expr, line: int):
        super().__init__(line)
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false


class Call(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: List[Expr], line: int):
        super().__init__(line)
        self.name = name
        self.args = args


class Index(Expr):
    __slots__ = ("base", "index")

    def __init__(self, base: Expr, index: Expr, line: int):
        super().__init__(line)
        self.base = base
        self.index = index


class CastExpr(Expr):
    __slots__ = ("target", "operand")

    def __init__(self, target: CType, operand: Expr, line: int):
        super().__init__(line)
        self.target = target
        self.operand = operand


class SizeOf(Expr):
    __slots__ = ("target",)

    def __init__(self, target: CType, line: int):
        super().__init__(line)
        self.target = target


# -- statements -----------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class Block(Stmt):
    __slots__ = ("statements",)

    def __init__(self, statements: List[Stmt], line: int):
        super().__init__(line)
        self.statements = statements


class VarDecl(Stmt):
    """``long x = e;`` or ``long a[10];`` (array_size None for scalars)."""

    __slots__ = ("type", "name", "init", "array_size")

    def __init__(self, type: CType, name: str, init: Optional[Expr],
                 array_size: Optional[int], line: int):
        super().__init__(line)
        self.type = type
        self.name = name
        self.init = init
        self.array_size = array_size


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr, line: int):
        super().__init__(line)
        self.expr = expr


class If(Stmt):
    __slots__ = ("cond", "then", "otherwise")

    def __init__(self, cond: Expr, then: Stmt, otherwise: Optional[Stmt],
                 line: int):
        super().__init__(line)
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt, line: int):
        super().__init__(line)
        self.cond = cond
        self.body = body


class DoWhile(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt, line: int):
        super().__init__(line)
        self.cond = cond
        self.body = body


class For(Stmt):
    __slots__ = ("init", "cond", "step", "body")

    def __init__(self, init: Optional[Stmt], cond: Optional[Expr],
                 step: Optional[Expr], body: Stmt, line: int):
        super().__init__(line)
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr], line: int):
        super().__init__(line)
        self.value = value


class Break(Stmt):
    __slots__ = ()


class Continue(Stmt):
    __slots__ = ()


# -- top level -------------------------------------------------------------------


class Param(Node):
    __slots__ = ("type", "name")

    def __init__(self, type: CType, name: str, line: int):
        super().__init__(line)
        self.type = type
        self.name = name


class FuncDef(Node):
    __slots__ = ("return_type", "name", "params", "body")

    def __init__(self, return_type: CType, name: str, params: List[Param],
                 body: Optional[Block], line: int):
        super().__init__(line)
        self.return_type = return_type
        self.name = name
        self.params = params
        self.body = body  # None for declarations


class GlobalDecl(Node):
    __slots__ = ("type", "name", "init", "array_size")

    def __init__(self, type: CType, name: str, init, array_size: Optional[int],
                 line: int):
        super().__init__(line)
        self.type = type
        self.name = name
        self.init = init
        self.array_size = array_size


class Program(Node):
    __slots__ = ("functions", "globals")

    def __init__(self, functions: List[FuncDef], globals: List[GlobalDecl]):
        super().__init__(0)
        self.functions = functions
        self.globals = globals
