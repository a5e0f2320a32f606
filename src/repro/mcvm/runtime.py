"""Runtime support for the mini-McVM: boxed values and generic natives.

Boxed ("UNK") values travel through the IR as ``i8*`` handles pointing to
:class:`McBox`/:class:`McFunctionHandleValue` host objects — our stand-in
for McVM's heap-allocated ``MatrixF64Obj``.  Generic instructions become
calls to the ``mc_*`` natives registered here; type-specialized code
touches none of them, which is where the Q4 speedups come from.

The generic arithmetic, compare and logical natives are one table,
:data:`MC_BINARY`: each ``mc_*`` name maps to a Python expression over
the unboxed operands ``x``/``y`` (the shape of ``vm/semantics.py``'s
rows); :data:`MC_UNARY` does the same over ``x`` for ``mc_neg`` and
``mc_logical_not``.  Each row is compiled once per process, when this
module is imported, into a module-level function that is a boxed op in
one Python frame:

* an operand is read with an inline class test —
  ``a.value if a.__class__ is McBox else unbox_to_float(a)`` — so only a
  raw number or a non-number reaches :func:`unbox_to_float`, which keeps
  every conversion and :class:`Trap`;
* the row computes a ``float`` by construction: ``mc_div`` divides inline
  and reaches ``vm/runtime.fdiv`` on a zero divisor alone, ``mc_pow`` is
  ``vm/runtime.fpow``, which returns a float or traps;
* the result box is built by ``object.__new__(McBox)`` and a slot store,
  with no ``McBox.__init__`` frame.

:func:`mc_box` is the same ``__init__``-free constructor for a value
from outside the table (the ``mc_box`` native, a feval result): it keeps
the guarantee that ``.value`` is a ``float``.  ``McBox(x)`` stays the
public constructor.  :func:`install_runtime` compiles nothing: it binds
these functions, and the engine's feval closure, on an engine.
"""

from __future__ import annotations

import linecache
import math
from typing import Callable, Dict

from ..ir import types as T
from ..ir.function import Module
from ..ir.types import FunctionType
from ..obs import events as EV
from ..vm.engine import ExecutionEngine
from ..vm.runtime import Trap, fdiv, fpow

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
        return float(value)
    if isinstance(value, int):
        return float(value)
    raise Trap(f"cannot convert {value!r} to a scalar double")


_new = object.__new__


def mc_box(v) -> McBox:
    """``McBox(v)`` without the ``__init__`` frame."""
    r = _new(McBox)
    r.value = v if v.__class__ is float else float(v)
    return r


#: generic binary natives: name -> result over the unboxed ``x``/``y``
MC_BINARY: Dict[str, str] = {
    "mc_add": "x + y",
    "mc_sub": "x - y",
    "mc_mul": "x * y",
    "mc_div": "x / y if y else _fdiv(x, y)",
    "mc_pow": "_fpow(x, y)",
    "mc_cmp_lt": "1.0 if x < y else 0.0",
    "mc_cmp_le": "1.0 if x <= y else 0.0",
    "mc_cmp_gt": "1.0 if x > y else 0.0",
    "mc_cmp_ge": "1.0 if x >= y else 0.0",
    "mc_cmp_eq": "1.0 if x == y else 0.0",
    "mc_cmp_ne": "1.0 if x != y else 0.0",
    "mc_logical_and": "1.0 if (x != 0.0 and y != 0.0) else 0.0",
    "mc_logical_or": "1.0 if (x != 0.0 or y != 0.0) else 0.0",
}

#: generic unary natives: name -> result over the unboxed ``x``
MC_UNARY: Dict[str, str] = {
    "mc_neg": "-x",
    "mc_logical_not": "1.0 if x == 0.0 else 0.0",
}

#: one operand's read: inline for a box, :func:`unbox_to_float` otherwise
_READ = ("    {x} = {a}.value if {a}.__class__ is McBox"
         " else unbox_to_float({a})\n")


def _row_source(name: str, expr: str, operands: str) -> str:
    reads = "".join(_READ.format(a=a, x=x) for a, x in zip(operands, "xy"))
    return (f"def {name}({', '.join(operands)}):\n{reads}"
            f"    r = _new(McBox)\n    r.value = {expr}\n    return r\n")


def _compile_rows() -> Dict[str, Callable]:
    """One function per table row, compiled together (once, at import)."""
    source = "\n".join(
        [_row_source(n, e, "ab") for n, e in MC_BINARY.items()]
        + [_row_source(n, e, "a") for n, e in MC_UNARY.items()])
    filename = "<mcvm-runtime-rows>"
    # source lines for tracebacks through a row
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace = {"__name__": __name__, "McBox": McBox, "_new": _new,
                 "unbox_to_float": unbox_to_float, "_fdiv": fdiv,
                 "_fpow": fpow}
    exec(compile(source, filename, "exec"), namespace)
    return {name: namespace[name] for name in (*MC_BINARY, *MC_UNARY)}


def mc_truthy(a) -> int:
    """The branch test on a boxed value: an ``i1``, not a box."""
    x = a.value if a.__class__ is McBox else unbox_to_float(a)
    return 1 if x != 0.0 else 0


#: the engine-independent natives, by symbol: the table's rows, the box
#: and unbox conversions, and the double-typed math builtins that
#: specialized code calls
MC_NATIVES: Dict[str, Callable] = {
    **_compile_rows(),
    "mc_box": mc_box,
    "mc_unbox": unbox_to_float,
    "mc_truthy": mc_truthy,
    "mc_mod": math.fmod,
    "mc_min": min,
    "mc_max": max,
}


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
    for name, native in MC_NATIVES.items():
        engine.add_native(name, native)

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

    dispatch = vm.dispatch_feval

    def mc_feval(target, *args):
        if target.__class__ is not McFunctionHandleValue:
            raise Trap(f"feval target {target!r} is not a handle")
        return dispatch(target.name, args)

    for arity in range(MAX_FEVAL_ARITY + 1):
        engine.add_native(f"mc_feval_{arity}", mc_feval)


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
