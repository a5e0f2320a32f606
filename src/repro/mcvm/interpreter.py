"""IIR interpreter — McVM's fallback tier.

A direct evaluator over the IIR tree, used as the semantic oracle for
the compiled tiers and as the conceptual "interpreter to fall back to"
in deoptimization scenarios.  Values are Python floats plus
:class:`~repro.mcvm.runtime.McFunctionHandleValue` for handles.
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..vm.runtime import fdiv, fpow
from . import mcast as M
from .mctypes import BUILTIN_FUNCTIONS
from .runtime import McFunctionHandleValue


class McRuntimeError(Exception):
    pass


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    pass


_BUILTIN_IMPL = {
    "abs": abs,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "floor": lambda x: float(math.floor(x)),
    "mod": math.fmod,
    "min": min,
    "max": max,
    "power": fpow,
}


class IIRInterpreter:
    """Evaluates IIR functions against a function registry."""

    def __init__(self, functions: Dict[str, M.McFunction]):
        self.functions = functions
        #: counts per (function, loop_id): the interpreter doubles as the
        #: profiling tier that discovers hot feval loops
        self.loop_counts: Dict[tuple, int] = {}

    def call(self, name: str, args: List[object]):
        function = self.functions.get(name)
        if function is None:
            raise McRuntimeError(f"undefined function {name!r}")
        if len(args) != len(function.params):
            raise McRuntimeError(
                f"{name} expects {len(function.params)} args, "
                f"got {len(args)}"
            )
        env: Dict[str, object] = dict(zip(function.params, args))
        try:
            self._exec_body(function, function.body, env)
        except _Return:
            pass
        if function.output is None:
            return 0.0
        return env.get(function.output, 0.0)

    # -- statements -----------------------------------------------------------

    def _exec_body(self, function: M.McFunction, body: List[M.Stmt],
                   env: Dict[str, object]) -> None:
        for stmt in body:
            self._exec(function, stmt, env)

    def _exec(self, function: M.McFunction, stmt: M.Stmt,
              env: Dict[str, object]) -> None:
        if isinstance(stmt, M.AssignStmt):
            env[stmt.name] = self._eval(stmt.value, env)
        elif isinstance(stmt, M.ExprStmt):
            self._eval(stmt.expr, env)
        elif isinstance(stmt, M.IfStmt):
            if self._truthy(self._eval(stmt.cond, env)):
                self._exec_body(function, stmt.body, env)
            elif stmt.orelse:
                self._exec_body(function, stmt.orelse, env)
        elif isinstance(stmt, M.WhileStmt):
            key = (function.name, stmt.loop_id)
            while self._truthy(self._eval(stmt.cond, env)):
                self.loop_counts[key] = self.loop_counts.get(key, 0) + 1
                try:
                    self._exec_body(function, stmt.body, env)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, M.ForStmt):
            lo = self._number(self._eval(stmt.lo, env))
            step = (self._number(self._eval(stmt.step, env))
                    if stmt.step is not None else 1.0)
            hi = self._number(self._eval(stmt.hi, env))
            key = (function.name, stmt.loop_id)
            value = lo
            while (value <= hi) if step >= 0 else (value >= hi):
                env[stmt.var] = value
                self.loop_counts[key] = self.loop_counts.get(key, 0) + 1
                try:
                    self._exec_body(function, stmt.body, env)
                except _Break:
                    break
                except _Continue:
                    pass
                value += step
        elif isinstance(stmt, M.BreakStmt):
            raise _Break()
        elif isinstance(stmt, M.ContinueStmt):
            raise _Continue()
        elif isinstance(stmt, M.ReturnStmt):
            raise _Return()
        else:
            raise McRuntimeError(f"cannot execute {type(stmt).__name__}")

    # -- expressions ---------------------------------------------------------------

    def _eval(self, expr: M.Expr, env: Dict[str, object]):
        if isinstance(expr, M.Num):
            return expr.value
        if isinstance(expr, M.Ident):
            try:
                return env[expr.name]
            except KeyError:
                raise McRuntimeError(
                    f"undefined variable {expr.name!r}"
                ) from None
        if isinstance(expr, M.FuncHandle):
            return McFunctionHandleValue(expr.name)
        if isinstance(expr, M.UnaryOp):
            value = self._eval(expr.operand, env)
            if expr.op == "-":
                return -self._number(value)
            if expr.op == "~":
                return 0.0 if self._truthy(value) else 1.0
            raise McRuntimeError(f"unknown unary {expr.op!r}")
        if isinstance(expr, M.BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, M.CallExpr):
            if expr.name in BUILTIN_FUNCTIONS:
                impl = _BUILTIN_IMPL[expr.name]
                args = [self._number(self._eval(a, env)) for a in expr.args]
                return float(impl(*args))
            args = [self._eval(a, env) for a in expr.args]
            return self.call(expr.name, args)
        if isinstance(expr, M.FevalExpr):
            target = self._eval(expr.target, env)
            if not isinstance(target, McFunctionHandleValue):
                raise McRuntimeError(f"feval target {target!r} is not a handle")
            args = [self._eval(a, env) for a in expr.args]
            return self.call(target.name, args)
        raise McRuntimeError(f"cannot evaluate {type(expr).__name__}")

    def _eval_binop(self, expr: M.BinOp, env: Dict[str, object]):
        a = self._eval(expr.lhs, env)
        b = self._eval(expr.rhs, env)
        op = expr.op
        if op in ("&&", "&"):
            return 1.0 if self._truthy(a) and self._truthy(b) else 0.0
        if op in ("||", "|"):
            return 1.0 if self._truthy(a) or self._truthy(b) else 0.0
        x = self._number(a)
        y = self._number(b)
        if op == "+":
            return x + y
        if op == "-":
            return x - y
        if op == "*":
            return x * y
        if op == "/":
            return x / y if y else fdiv(x, y)
        if op == "^":
            return fpow(x, y)
        table = {"<": x < y, "<=": x <= y, ">": x > y, ">=": x >= y,
                 "==": x == y, "~=": x != y}
        if op in table:
            return 1.0 if table[op] else 0.0
        raise McRuntimeError(f"unknown operator {op!r}")

    @staticmethod
    def _number(value) -> float:
        if isinstance(value, float):
            return value
        if isinstance(value, int):
            return float(value)
        raise McRuntimeError(f"expected a number, got {value!r}")

    def _truthy(self, value) -> bool:
        return self._number(value) != 0.0
