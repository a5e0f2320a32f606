"""The boxed runtime's table, its one-frame fast path, and one class of
MATLAB arithmetic error on every McVM path."""

import math
import sys

import pytest

from repro.ir.function import Module
from repro.mcvm import McBox, McVM
from repro.mcvm import mcast as M
from repro.mcvm.interpreter import IIRInterpreter
from repro.mcvm.runtime import (
    MC_BINARY,
    MC_NATIVES,
    MC_UNARY,
    install_runtime,
    mc_box,
)
from repro.vm import ExecutionEngine, Trap

#: the MATLAB operator each binary row implements
OPERATORS = {
    "mc_add": "+", "mc_sub": "-", "mc_mul": "*", "mc_div": "/",
    "mc_pow": "^", "mc_cmp_lt": "<", "mc_cmp_le": "<=", "mc_cmp_gt": ">",
    "mc_cmp_ge": ">=", "mc_cmp_eq": "==", "mc_cmp_ne": "~=",
    "mc_logical_and": "&&", "mc_logical_or": "||",
}
UNARY_OPERATORS = {"mc_neg": "-", "mc_logical_not": "~"}

VALUES = [0.0, -0.0, 1.5, -1.5, 2.0, -3.0, math.inf, -math.inf, math.nan,
          1e308, 5e-324]


def _forms(value):
    """``value`` boxed, as a raw float, and as a raw int where an int
    holds it exactly (not -0.0, not a non-finite or fractional value).
    Each form is (what the native gets, what the interpreter gets)."""
    forms = [(McBox(value), value), (value, value)]
    if (math.isfinite(value) and value == int(value)
            and math.copysign(1.0, value) > 0):
        forms.append((int(value), int(value)))
    return forms


def _outcome(thunk):
    try:
        return thunk()
    except Exception as exc:  # the class is what is compared
        return type(exc)


def _same(got, want):
    if isinstance(want, type):
        return got is want
    if isinstance(got, type):
        return False
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0,
                                                                    want)


def _value(result):
    if isinstance(result, type):
        return result
    assert result.__class__ is McBox
    assert result.value.__class__ is float
    return result.value


class TestTableAgainstTheOracle:
    """Every row equals the IIR interpreter's semantics, NaN-aware and
    sign-of-zero exact, or raises the same exception class."""

    def test_every_row_has_an_operator(self):
        assert set(OPERATORS) == set(MC_BINARY)
        assert set(UNARY_OPERATORS) == set(MC_UNARY)

    @pytest.mark.parametrize("name", sorted(MC_BINARY))
    def test_binary_row(self, name):
        native = MC_NATIVES[name]
        interp = IIRInterpreter({})
        expr = M.BinOp(OPERATORS[name], M.Ident("x", 0), M.Ident("y", 0), 0)
        checked = 0
        for a in VALUES:
            for b in VALUES:
                for x, ix in _forms(a):
                    for y, iy in _forms(b):
                        want = _outcome(
                            lambda: interp._eval_binop(expr, {"x": ix,
                                                              "y": iy}))
                        got = _value(_outcome(lambda: native(x, y)))
                        assert _same(got, want), (name, x, y, got, want)
                        checked += 1
        assert checked > len(VALUES) ** 2

    @pytest.mark.parametrize("name", sorted(MC_UNARY))
    def test_unary_row(self, name):
        native = MC_NATIVES[name]
        interp = IIRInterpreter({})
        expr = M.UnaryOp(UNARY_OPERATORS[name], M.Ident("x", 0), 0)
        for a in VALUES:
            for x, ix in _forms(a):
                want = _outcome(lambda: interp._eval(expr, {"x": ix}))
                got = _value(_outcome(lambda: native(x)))
                assert _same(got, want), (name, x, got, want)

    def test_truthy(self):
        interp = IIRInterpreter({})
        for a in VALUES:
            for x, ix in _forms(a):
                got = MC_NATIVES["mc_truthy"](x)
                assert got.__class__ is int
                assert got == (1 if interp._truthy(ix) else 0)

    @pytest.mark.parametrize("value", [2.5, 3, True, -0.0])
    def test_box_constructor_keeps_a_float(self, value):
        for result in (mc_box(value), MC_NATIVES["mc_box"](value)):
            assert result.__class__ is McBox
            assert result.value.__class__ is float
            assert _same(result.value, float(value))

    def test_non_numbers_trap(self):
        for name in MC_BINARY:
            with pytest.raises(Trap):
                MC_NATIVES[name](McBox(1.0), "nope")
        for name in (*MC_UNARY, "mc_truthy"):
            with pytest.raises(Trap):
                MC_NATIVES[name](object())


def _python_calls(fn, *args):
    """Names of the Python functions entered while ``fn(*args)`` runs
    (``call`` events only, so C calls do not count)."""
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return entered


class TestFastPath:
    """A boxed op on boxed operands is one Python frame."""

    def test_boxed_add_and_box_enter_only_themselves(self):
        assert _python_calls(MC_NATIVES["mc_add"], McBox(1.0),
                             McBox(2.0)) == ["mc_add"]
        assert _python_calls(mc_box, 1.0) == ["mc_box"]

    @pytest.mark.parametrize("name", sorted(MC_BINARY))
    def test_every_row_on_boxes(self, name):
        helpers = ["fpow"] if name == "mc_pow" else []
        assert _python_calls(MC_NATIVES[name], McBox(3.0),
                             McBox(2.0)) == [name, *helpers]

    @pytest.mark.parametrize("name", [*sorted(MC_UNARY), "mc_truthy"])
    def test_unary_on_a_box(self, name):
        assert _python_calls(MC_NATIVES[name], McBox(3.0)) == [name]

    def test_install_binds_the_shared_functions(self):
        engines = [ExecutionEngine(Module("rt")) for _ in range(2)]
        for engine in engines:
            install_runtime(engine, McVM("function y = f(x)\ny = x;\nend"))
        for name, native in MC_NATIVES.items():
            assert all(engine._natives[name].callable is native
                       for engine in engines), name


_ERRORS_SRC = """
function y = op(a, b)
  y = a {op} b;
end

function r = drive(h, n, a, b)
  r = 0.0;
  i = 1.0;
  while i <= n
    x = 1.0;
    z = 1.0;
    if i == n
      x = a;
      z = b;
    end
    r = r + feval(h, x, z);
    i = i + 1.0;
  end
end
"""

#: (operator, a, b): a pole, a domain error, a pole, an overflow
ERROR_CASES = [("/", 1.0, 0.0), ("^", -8.0, 0.5), ("^", 0.0, -1.0),
               ("^", 1e308, 2.0)]
ITERATIONS = 6


@pytest.mark.parametrize("op,a,b", ERROR_CASES)
class TestArithmeticErrorsTrap:
    """A MATLAB arithmetic error is a Trap on every McVM path."""

    def test_interpreted(self, op, a, b):
        vm = McVM(_ERRORS_SRC.format(op=op))
        with pytest.raises(Trap):
            vm.run_interpreted("op", a, b)

    def test_typed_direct_call(self, op, a, b):
        vm = McVM(_ERRORS_SRC.format(op=op))
        with pytest.raises(Trap):
            vm.run("op", a, b)

    def test_feval_base(self, op, a, b):
        vm = McVM(_ERRORS_SRC.format(op=op), enable_osr=False)
        with pytest.raises(Trap):
            vm.run("drive", "@op", ITERATIONS, a, b)
        assert vm.stats["feval_dispatches"] == ITERATIONS

    def test_feval_opt(self, op, a, b):
        vm = McVM(_ERRORS_SRC.format(op=op), enable_osr=True,
                  osr_threshold=2)
        with pytest.raises(Trap):
            vm.run("drive", "@op", ITERATIONS, a, b)
        # the last iteration ran in the optimized continuation
        assert vm.stats["feval_optimizations"] == 1
        assert vm.stats["feval_dispatches"] < ITERATIONS
