"""Runtime support for the mini-McVM: boxed values and generic natives.

Boxed ("UNK") values travel through the IR as ``i8*`` handles pointing to
:class:`McBox`/:class:`McFunctionHandleValue` host objects — our stand-in
for McVM's heap-allocated ``MatrixF64Obj``.  Generic instructions become
calls to the ``mc_*`` natives registered here; type-specialized code
touches none of them, which is where the Q4 speedups come from.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from ..ir import types as T
from ..ir.function import Module
from ..ir.types import FunctionType
from ..obs import events as EV
from ..vm.engine import ExecutionEngine
from ..vm.interpreter import Trap

I8P = T.ptr(T.i8)


class McBox:
    """A boxed scalar double (McVM's ``MatrixF64Obj``)."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"McBox({self.value})"


class McFunctionHandleValue:
    """A first-class function handle (``@name``)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover
        return f"@{self.name}"


def unbox_to_float(value) -> float:
    if isinstance(value, McBox):
        return value.value
    if isinstance(value, float):
        return value
    if isinstance(value, int):
        return float(value)
    raise Trap(f"cannot convert {value!r} to a scalar double")


#: IR-level signatures of the mc_* runtime, declared on demand
RUNTIME_SIGNATURES: Dict[str, FunctionType] = {
    "mc_box": FunctionType(I8P, [T.f64]),
    "mc_unbox": FunctionType(T.f64, [I8P]),
    "mc_add": FunctionType(I8P, [I8P, I8P]),
    "mc_sub": FunctionType(I8P, [I8P, I8P]),
    "mc_mul": FunctionType(I8P, [I8P, I8P]),
    "mc_div": FunctionType(I8P, [I8P, I8P]),
    "mc_pow": FunctionType(I8P, [I8P, I8P]),
    "mc_neg": FunctionType(I8P, [I8P]),
    "mc_cmp_lt": FunctionType(I8P, [I8P, I8P]),
    "mc_cmp_le": FunctionType(I8P, [I8P, I8P]),
    "mc_cmp_gt": FunctionType(I8P, [I8P, I8P]),
    "mc_cmp_ge": FunctionType(I8P, [I8P, I8P]),
    "mc_cmp_eq": FunctionType(I8P, [I8P, I8P]),
    "mc_cmp_ne": FunctionType(I8P, [I8P, I8P]),
    "mc_logical_and": FunctionType(I8P, [I8P, I8P]),
    "mc_logical_or": FunctionType(I8P, [I8P, I8P]),
    "mc_logical_not": FunctionType(I8P, [I8P]),
    "mc_truthy": FunctionType(T.i1, [I8P]),
    "mc_handle_name_matches": FunctionType(T.i1, [I8P, I8P]),
}

#: feval dispatchers per arity: mc_feval_<n>(i8* target, i8* x n) -> i8*
MAX_FEVAL_ARITY = 8
for _arity in range(MAX_FEVAL_ARITY + 1):
    RUNTIME_SIGNATURES[f"mc_feval_{_arity}"] = FunctionType(
        I8P, [I8P] * (_arity + 1)
    )


def declare_runtime(module: Module, name: str):
    """Get-or-declare an mc_* runtime function in a module."""
    return module.declare_function(name, RUNTIME_SIGNATURES[name])


def install_runtime(engine: ExecutionEngine, vm) -> None:
    """Register the mc_* natives on an engine.

    ``vm`` is the owning :class:`~repro.mcvm.vm.McVM`; the feval
    dispatchers resolve and JIT-compile callees through it.
    """

    def _arith(name: str, op: Callable[[float, float], float]) -> None:
        def native(a, b):
            return McBox(op(unbox_to_float(a), unbox_to_float(b)))

        engine.add_native(name, native)

    engine.add_native("mc_box", lambda v: McBox(v))
    engine.add_native("mc_unbox", unbox_to_float)
    _arith("mc_add", lambda a, b: a + b)
    _arith("mc_sub", lambda a, b: a - b)
    _arith("mc_mul", lambda a, b: a * b)
    _arith("mc_div", lambda a, b: a / b)
    _arith("mc_pow", lambda a, b: a ** b)
    engine.add_native("mc_neg", lambda a: McBox(-unbox_to_float(a)))
    _arith("mc_cmp_lt", lambda a, b: 1.0 if a < b else 0.0)
    _arith("mc_cmp_le", lambda a, b: 1.0 if a <= b else 0.0)
    _arith("mc_cmp_gt", lambda a, b: 1.0 if a > b else 0.0)
    _arith("mc_cmp_ge", lambda a, b: 1.0 if a >= b else 0.0)
    _arith("mc_cmp_eq", lambda a, b: 1.0 if a == b else 0.0)
    _arith("mc_cmp_ne", lambda a, b: 1.0 if a != b else 0.0)
    _arith("mc_logical_and",
           lambda a, b: 1.0 if (a != 0.0 and b != 0.0) else 0.0)
    _arith("mc_logical_or",
           lambda a, b: 1.0 if (a != 0.0 or b != 0.0) else 0.0)
    engine.add_native(
        "mc_logical_not",
        lambda a: McBox(1.0 if unbox_to_float(a) == 0.0 else 0.0),
    )
    engine.add_native(
        "mc_truthy", lambda a: 1 if unbox_to_float(a) != 0.0 else 0
    )

    def handle_name_matches(value, name_box):
        if (isinstance(value, McFunctionHandleValue)
                and value.name == name_box.name):
            return 1
        observed = (value.name if isinstance(value, McFunctionHandleValue)
                    else type(value).__name__)
        engine.telemetry.event(EV.FEVAL_GUARD_FAIL, expected=name_box.name,
                               observed=observed)
        return 0

    engine.add_native("mc_handle_name_matches", handle_name_matches)

    def make_feval(arity: int):
        def mc_feval(target, *args):
            if not isinstance(target, McFunctionHandleValue):
                raise Trap(f"feval target {target!r} is not a handle")
            return vm.dispatch_feval(target.name, list(args))

        return mc_feval

    for arity in range(MAX_FEVAL_ARITY + 1):
        engine.add_native(f"mc_feval_{arity}", make_feval(arity))

    # double-typed math builtins used by specialized code
    engine.add_native("mc_mod", math.fmod)
    engine.add_native("mc_min", min)
    engine.add_native("mc_max", max)


#: builtin name -> (native symbol, arity); all double-in/double-out
BUILTIN_NATIVES: Dict[str, tuple] = {
    "abs": ("fabs", 1),
    "sqrt": ("sqrt", 1),
    "exp": ("exp", 1),
    "log": ("log", 1),
    "sin": ("sin", 1),
    "cos": ("cos", 1),
    "floor": ("floor", 1),
    "mod": ("mc_mod", 2),
    "min": ("mc_min", 2),
    "max": ("mc_max", 2),
    "power": ("pow", 2),
}


def declare_builtin(module: Module, name: str):
    """Get-or-declare the f64 builtin for a MATLAB builtin name."""
    symbol, arity = BUILTIN_NATIVES[name]
    fnty = FunctionType(T.f64, [T.f64] * arity)
    return module.declare_function(symbol, fnty)
