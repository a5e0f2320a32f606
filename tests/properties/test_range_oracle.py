"""An oracle for the range facts: every row they pick is checked as it runs.

The no-wrap rows (``semantics.NO_WRAP``) are swapped for ones that raise
when the result leaves its width, and the one-sided rows for ones that
raise when the result passes the side they do not check.  Then the 8
shootout programs at the ledger's ``steady_shootout`` arguments and the
generated programs of ``strategies.py`` run on ``jit`` and ``decoded``:
no claim may break, and every result must equal the interpreter's.  A
wrong fact thus fails here instead of changing a result only on
overflow.  Nothing in ``src/`` knows about this check.
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import RangeFacts
from repro.ir import parse_module, print_module
from repro.ir.function import Module
from repro.shootout import SUITE, compile_benchmark
from repro.vm import ExecutionEngine, jit, semantics

from .strategies import arguments_for, build_program, program_specs

#: ``benchmarks/ledger/steady_shootout.py``'s ARGS
STEADY_ARGS = {"b-trees": 7, "fannkuch": 6, "fasta": 10000,
               "fasta-redux": 10000, "mbrot": 32, "n-body": 400,
               "rev-comp": 6000, "sp-norm": 22}

CHECKED_TIERS = ("jit", "decoded")


class BrokenClaim(Exception):
    """A row's range claim did not hold at run time."""


def _claim(value, bits, side):
    """``value`` if the row's claim holds: within the width (``both``),
    at or above MIN (``up``: only the top is checked), at or below MAX
    (``down``)."""
    half = 1 << (bits - 1)
    if ((side != "up" and value > half - 1)
            or (side != "down" and value < -half)):
        raise BrokenClaim(f"{value} leaves i{bits} ({side})")
    return value


@contextmanager
def checked_rows():
    with pytest.MonkeyPatch.context() as patch:
        for table, side, wrap in ((semantics.NO_WRAP, "both", ""),
                                  (semantics.WRAP_UP, "up", "WU"),
                                  (semantics.WRAP_DOWN, "down", "WD")):
            for op, sign in (("add", "+"), ("sub", "-")):
                text = f"_claim(a {sign} b, BITS, {side!r})"
                patch.setitem(table, op, f"{wrap}({text})" if wrap else text)
        patch.setitem(semantics.HELPERS, "_claim", _claim)
        patch.setitem(jit._STATIC_NS, "_claim", _claim)
        yield patch


def _outcome(text, name, args, tier):
    engine = ExecutionEngine(parse_module(text), tier=tier)
    try:
        return ("ok", engine.run(name, *args))
    except BrokenClaim:
        raise
    except Exception as error:  # traps and faults compare by kind
        return ("error", type(error).__name__)


@pytest.mark.parametrize("name", sorted(STEADY_ARGS))
def test_shootout_claims_hold(name):
    bench = SUITE[name]
    arg = STEADY_ARGS[name]
    expected = ExecutionEngine(compile_benchmark(bench, "optimized"),
                               tier="interp").run(bench.entry, arg)
    with checked_rows():
        for tier in CHECKED_TIERS:
            module = compile_benchmark(bench, "optimized")
            result = ExecutionEngine(module, tier=tier).run(bench.entry, arg)
            assert result == expected, tier


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_generated_program_claims_hold(data):
    spec = data.draw(program_specs())
    args = data.draw(arguments_for(spec))
    module = Module("prop")
    build_program(spec, module, "prog")
    text = print_module(module)
    oracle = _outcome(text, "prog", args, "interp")
    with checked_rows():
        for tier in CHECKED_TIERS:
            assert _outcome(text, "prog", args, tier) == oracle, tier


def test_the_oracle_catches_a_wrong_fact():
    text = """
define i64 @f(i64 %x) {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}
"""
    with checked_rows() as patch:
        patch.setattr(RangeFacts, "interval",
                      lambda self, value, block: (0, 0))
        for tier in CHECKED_TIERS:
            with pytest.raises(BrokenClaim):
                _outcome(text, "f", ((1 << 63) - 1,), tier)
