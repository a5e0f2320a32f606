"""Type classes and type inference for the mini-McVM.

McVM's "function versioning mechanism based on type specialization ...
the main driver for generating efficient code" (paper Section 4): each
MATLAB function is compiled once per observed argument-type signature,
and a per-version inference assigns every variable a storage class:

* ``DOUBLE`` — a known scalar double, kept unboxed in an ``f64``;
* ``HANDLE`` — a function handle, kept as an opaque ``i8*``;
* ``BOXED``  — statically unknown (the paper's boxed "UNK" values,
  handled through slow generic instructions).

The key dynamics the paper exploits: the result of ``feval`` is
``BOXED`` (the callee is unknown to the static analysis), and boxedness
propagates — so a loop accumulating through ``feval`` degrades to generic
code.  Replacing the feval with a direct call lets inference keep
everything ``DOUBLE``, which is exactly what the IIR-level OSR
specialization wins back.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .mcast import (
    AssignStmt,
    BinOp,
    CallExpr,
    Expr,
    FevalExpr,
    ForStmt,
    FuncHandle,
    Ident,
    IfStmt,
    McFunction,
    Num,
    Stmt,
    UnaryOp,
    WhileStmt,
)

DOUBLE = "double"
HANDLE = "handle"
BOXED = "boxed"

#: builtins always consume and produce scalars
BUILTIN_FUNCTIONS = {
    "abs", "sqrt", "exp", "log", "sin", "cos", "floor", "mod",
    "min", "max", "power",
}


class McTypeError(Exception):
    """Raised when inference meets an impossible construct."""


def join(a: str, b: str) -> str:
    """Least upper bound of two storage classes."""
    if a == b:
        return a
    return BOXED


class TypeInfo:
    """Result of inference for one function version."""

    def __init__(self, function: McFunction, arg_classes: Tuple[str, ...],
                 var_classes: Dict[str, str], return_class: str):
        self.function = function
        self.arg_classes = arg_classes
        self.var_classes = var_classes
        self.return_class = return_class

    def class_of(self, name: str) -> str:
        return self.var_classes.get(name, BOXED)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TypeInfo {self.function.name}{self.arg_classes} "
            f"-> {self.return_class}>"
        )


class TypeInference:
    """Flow-insensitive per-variable fixpoint inference.

    ``call_oracle(name, arg_classes) -> return class`` resolves direct
    calls to other user functions (the VM supplies it, compiling callee
    versions recursively); builtins are always DOUBLE.
    """

    def __init__(self, call_oracle=None):
        self.call_oracle = call_oracle

    def infer(self, function: McFunction,
              arg_classes: Sequence[str]) -> TypeInfo:
        if len(arg_classes) != len(function.params):
            raise McTypeError(
                f"{function.name} expects {len(function.params)} args, "
                f"got {len(arg_classes)}"
            )
        classes: Dict[str, str] = dict(zip(function.params, arg_classes))
        changed = True
        while changed:
            changed = False
            for stmt in _walk(function.body):
                if isinstance(stmt, AssignStmt):
                    rhs = self.expr_class(stmt.value, classes)
                    current = classes.get(stmt.name)
                    new = rhs if current is None else join(current, rhs)
                    if new != current:
                        classes[stmt.name] = new
                        changed = True
                elif isinstance(stmt, ForStmt):
                    current = classes.get(stmt.var)
                    new = DOUBLE if current is None else join(current, DOUBLE)
                    if new != current:
                        classes[stmt.var] = new
                        changed = True
        if function.output is not None:
            return_class = classes.get(function.output, DOUBLE)
        else:
            return_class = DOUBLE
        return TypeInfo(function, tuple(arg_classes), classes, return_class)

    def expr_class(self, expr: Expr, classes: Dict[str, str]) -> str:
        if isinstance(expr, Num):
            return DOUBLE
        if isinstance(expr, Ident):
            return classes.get(expr.name, BOXED)
        if isinstance(expr, FuncHandle):
            return HANDLE
        if isinstance(expr, UnaryOp):
            inner = self.expr_class(expr.operand, classes)
            return DOUBLE if inner == DOUBLE else BOXED
        if isinstance(expr, BinOp):
            lhs = self.expr_class(expr.lhs, classes)
            rhs = self.expr_class(expr.rhs, classes)
            if lhs == DOUBLE and rhs == DOUBLE:
                return DOUBLE
            return BOXED
        if isinstance(expr, CallExpr):
            if expr.name in BUILTIN_FUNCTIONS:
                return DOUBLE
            if self.call_oracle is not None:
                arg_classes = tuple(
                    self.expr_class(a, classes) for a in expr.args
                )
                return self.call_oracle(expr.name, arg_classes)
            return BOXED
        if isinstance(expr, FevalExpr):
            # the feval target is statically unknown: its value must be
            # treated as boxed (the whole point of the case study)
            return BOXED
        raise McTypeError(f"cannot classify {type(expr).__name__}")


def _walk(body: List[Stmt]):
    for stmt in body:
        yield stmt
        if isinstance(stmt, IfStmt):
            yield from _walk(stmt.body)
            if stmt.orelse:
                yield from _walk(stmt.orelse)
        elif isinstance(stmt, (WhileStmt, ForStmt)):
            yield from _walk(stmt.body)
