"""The scalar-semantics table (``repro.vm.semantics``).

* closed vocabulary: the table's keys are exactly the IR's opcode and
  predicate sets (minus the three casts the value representation and
  the engine's object table answer);
* exhaustive edge differential: for every entry, at every width, over
  the boundary operands, ``interp == decoded == jit`` — value or trap
  class — with the compares exercised both as ``i1`` values and as
  branch tests.  The tree-walker runs on ``transform.constfold``'s
  folders, an encoding independent of the table;
* structural guard: ``vm/decode.py`` and ``vm/jit.py`` spell no opcode,
  predicate or cast name, so a second encoding cannot grow back;
* tooling: a trap inside a generated closure shows the entry's
  expression in its traceback.
"""

import ast
import itertools
import traceback
from pathlib import Path

import pytest

import repro.vm
from repro.ir import parse_module
from repro.ir.instructions import (
    CAST_OPCODES,
    FCMP_PREDICATES,
    FLOAT_BINOPS,
    ICMP_PREDICATES,
    INT_BINOPS,
)
from repro.vm import ExecutionEngine, Trap, semantics

TIERS = ("interp", "decoded", "jit")
WIDTHS = (1, 8, 16, 32, 64)
FLOATS = (0.0, -0.0, 1.5, -1.5, 1e308, -1e308, float("inf"), float("-inf"),
          float("nan"), 3e9, -3e9, 1e19, 0.1)
VOCABULARIES = (INT_BINOPS, FLOAT_BINOPS, ICMP_PREDICATES, FCMP_PREDICATES,
                CAST_OPCODES)


class TestClosedVocabulary:
    def test_keys_are_the_ir_vocabularies(self):
        assert set(semantics.INT_BINOP) == INT_BINOPS
        assert set(semantics.FLOAT_BINOP) == FLOAT_BINOPS
        assert set(semantics.ICMP) == ICMP_PREDICATES
        assert set(semantics.PTR_ICMP) == ICMP_PREDICATES
        assert set(semantics.FCMP) == FCMP_PREDICATES
        assert set(semantics.CAST) == (
            CAST_OPCODES - {"bitcast"} - set(semantics.OBJECT_TABLE_CASTS))
        assert set(semantics.OBJECT_TABLE_CASTS) == {"inttoptr", "ptrtoint"}

    def test_entries_only_name_operands_constants_and_helpers(self):
        allowed = ({"a", "b", "M", "BITS", "SM", "W"} | set(semantics.HELPERS)
                   | {"float", "id", "tuple"})
        for table in (semantics.INT_BINOP, semantics.FLOAT_BINOP,
                      semantics.ICMP, semantics.PTR_ICMP, semantics.FCMP,
                      semantics.CAST):
            for key, text in table.items():
                names = {node.id for node in ast.walk(ast.parse(text))
                         if isinstance(node, ast.Name)}
                assert names <= allowed, (key, names - allowed)


# -- exhaustive edge differential ----------------------------------------------


def edge_ints(bits):
    if bits == 1:
        return [0, 1]  # i1 is kept as 0/1
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return sorted({lo, lo + 1, -1, 0, 1, 2, bits - 1, hi - 1, hi})


def compare_functions(op, pred, ty):
    """A compare as an ``i1`` value and as a branch test."""
    return f"""
define i1 @{op}_{pred}({ty} %a, {ty} %b) {{
entry:
  %c = {op} {pred} {ty} %a, %b
  ret i1 %c
}}

define i1 @{op}_{pred}_br({ty} %a, {ty} %b) {{
entry:
  %c = {op} {pred} {ty} %a, %b
  br i1 %c, label %yes, label %no
yes:
  ret i1 1
no:
  ret i1 0
}}
"""


def binop_function(op, ty):
    return f"""
define {ty} @{op}({ty} %a, {ty} %b) {{
entry:
  %r = {op} {ty} %a, %b
  ret {ty} %r
}}
"""


def cast_function(op, src, dst):
    name = f"{op}_{src}_{dst}"
    return name, f"""
define {dst} @{name}({src} %a) {{
entry:
  %r = {op} {src} %a to {dst}
  ret {dst} %r
}}
"""


def outcome(engine, name, args):
    try:
        value = engine.run(name, *args)
    except Trap:
        return "Trap"
    except Exception as error:  # a divergence in kind: report the class
        return type(error).__name__
    return repr(value)  # repr separates -0.0 from 0.0 and equates nans


def assert_tiers_agree(source, calls):
    """``calls``: (function name, argument tuple) pairs; one engine per
    (program, tier)."""
    engines = {tier: ExecutionEngine(parse_module(source), tier=tier)
               for tier in TIERS}
    divergences = []
    for name, args in calls:
        seen = {tier: outcome(engine, name, args)
                for tier, engine in engines.items()}
        if len(set(seen.values())) != 1:
            divergences.append((name, args, seen))
    assert not divergences, divergences[:10]


@pytest.mark.parametrize("bits", WIDTHS)
def test_integer_entries_agree_on_edge_operands(bits):
    ty = f"i{bits}"
    source = "".join(binop_function(op, ty) for op in sorted(INT_BINOPS))
    source += "".join(compare_functions("icmp", pred, ty)
                      for pred in sorted(ICMP_PREDICATES))
    names = sorted(INT_BINOPS) + [
        f"icmp_{pred}{suffix}" for pred in sorted(ICMP_PREDICATES)
        for suffix in ("", "_br")]
    pairs = list(itertools.product(edge_ints(bits), repeat=2))
    assert_tiers_agree(source, [(name, pair)
                                for name in names for pair in pairs])


def test_float_entries_agree_on_edge_operands():
    source = "".join(binop_function(op, "double")
                     for op in sorted(FLOAT_BINOPS))
    source += "".join(compare_functions("fcmp", pred, "double")
                      for pred in sorted(FCMP_PREDICATES))
    names = sorted(FLOAT_BINOPS) + [
        f"fcmp_{pred}{suffix}" for pred in sorted(FCMP_PREDICATES)
        for suffix in ("", "_br")]
    pairs = list(itertools.product(FLOATS, repeat=2))
    assert_tiers_agree(source, [(name, pair)
                                for name in names for pair in pairs])


def test_cast_entries_agree_on_edge_operands():
    source, calls = "", []

    def add(op, src, dst, values):
        nonlocal source
        name, text = cast_function(op, src, dst)
        source += text
        calls.extend((name, (value,)) for value in values)

    for narrow, wide in itertools.combinations(WIDTHS, 2):
        add("trunc", f"i{wide}", f"i{narrow}", edge_ints(wide))
        add("zext", f"i{narrow}", f"i{wide}", edge_ints(narrow))
        add("sext", f"i{narrow}", f"i{wide}", edge_ints(narrow))
    for bits in WIDTHS:
        for fty in ("float", "double"):
            add("sitofp", f"i{bits}", fty, edge_ints(bits))
            add("uitofp", f"i{bits}", fty, edge_ints(bits))
            add("fptosi", fty, f"i{bits}", FLOATS)
            add("fptoui", fty, f"i{bits}", FLOATS)
    add("fptrunc", "double", "float", FLOATS)
    add("fpext", "float", "double", FLOATS)
    assert_tiers_agree(source, calls)


def test_pointer_entries_agree():
    """Buffer pointers, function handles and null, every predicate, as a
    value and as a branch test.  Ordering is compared within one buffer
    only: across buffers it follows ``id`` and differs per engine."""
    source = """
@g = global [4 x i64] [i64 0, i64 0, i64 0, i64 0]
@h = global [4 x i64] [i64 0, i64 0, i64 0, i64 0]

define i64 @fn1() {
entry:
  ret i64 1
}

define i64 @fn2() {
entry:
  ret i64 2
}
"""
    same_buffer = [("getelementptr [4 x i64], [4 x i64]* @g, i64 0, i64 %d" % i,
                    "getelementptr [4 x i64], [4 x i64]* @g, i64 0, i64 %d" % j)
                   for i, j in ((0, 0), (0, 1), (2, 1))]
    calls = []
    for index, (lhs, rhs) in enumerate(same_buffer):
        for pred in sorted(ICMP_PREDICATES):
            for form in ("value", "br"):
                name = f"buf{index}_{pred}_{form}"
                tail = ("ret i1 %c" if form == "value" else
                        "br i1 %c, label %yes, label %no\n"
                        "yes:\n  ret i1 1\nno:\n  ret i1 0")
                source += f"""
define i1 @{name}() {{
entry:
  %p = {lhs}
  %q = {rhs}
  %c = icmp {pred} i64* %p, %q
  {tail}
}}
"""
                calls.append((name, ()))
    identities = [("i64 ()*", "@fn1", "@fn1"), ("i64 ()*", "@fn1", "@fn2"),
                  ("i64 ()*", "@fn1", "null"),
                  ("[4 x i64]*", "@g", "@h"), ("[4 x i64]*", "@g", "null"),
                  ("[4 x i64]*", "null", "null")]
    for index, (ty, lhs, rhs) in enumerate(identities):
        for pred in ("eq", "ne"):
            name = f"id{index}_{pred}"
            source += f"""
define i1 @{name}() {{
entry:
  %c = icmp {pred} {ty} {lhs}, {rhs}
  ret i1 %c
}}
"""
            calls.append((name, ()))
    assert_tiers_agree(source, calls)
    engine = ExecutionEngine(parse_module(source), tier="jit")
    assert [engine.run(f"id{i}_eq") for i in range(len(identities))] == [
        1, 0, 0, 0, 0, 1]


# -- structural guard ------------------------------------------------------------


def test_tiers_spell_no_opcode_predicate_or_cast():
    """Per-opcode arithmetic lives in the table only: neither tier's
    source holds a string constant from the five vocabularies."""
    vocabulary = set().union(*VOCABULARIES)
    vm_root = Path(repro.vm.__file__).resolve().parent
    offenders = []
    for filename in ("decode.py", "jit.py"):
        tree = ast.parse((vm_root / filename).read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value in vocabulary):
                offenders.append(f"{filename}:{node.lineno}: {node.value!r}")
    assert not offenders, (
        "scalar semantics re-encoded outside vm/semantics.py:\n"
        + "\n".join(offenders))


# -- tooling -----------------------------------------------------------------------


def test_trap_traceback_shows_the_entry_expression():
    source = """
define i64 @f(i64 %a, i64 %b) {
entry:
  %q = udiv i64 %a, %b
  ret i64 %q
}
"""
    engine = ExecutionEngine(parse_module(source), tier="decoded")
    with pytest.raises(Trap) as info:
        engine.run("f", 1, 0)
    text = "".join(traceback.format_exception(
        info.type, info.value, info.tb))
    assert "<semantics>/udiv/slot,slot/i64" in text
    assert "_nz(frame[b] & 18446744073709551615)" in text


def test_fault_traceback_shows_the_decoder_body():
    source = """
define i64 @f() {
entry:
  %r = load i64, i64* null
  ret i64 %r
}
"""
    engine = ExecutionEngine(parse_module(source), tier="decoded")
    with pytest.raises(MemoryError) as info:
        engine.run("f")
    text = "".join(traceback.format_exception(
        info.type, info.value, info.tb))
    # the load feeds the ret, so it runs as that closure's fused thunk
    assert "<decode>/ret/thunk" in text
    assert "<decode>/load_scalar_val/slot" in text
    assert "buf.check(off, size)" in text


# -- W, the two's-complement wrap ------------------------------------------------


@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_wrap_at_the_range_boundary_through_both_projections(bits):
    """``W(x)`` answers ``x`` itself inside ``[-2^(bits-1), 2^(bits-1))``
    and re-biases outside: the boundary and one past it, both sides."""
    half = 1 << (bits - 1)
    entry = semantics.Entry("cast.trunc", semantics.CAST["trunc"], False,
                            bits, 128)
    tree = ast.Expression(semantics.instantiate(
        entry, [lambda: ast.Name("x", ast.Load())]))
    code = compile(ast.fix_missing_locations(tree), "<W>", "eval")
    decoded_wrap = semantics.closure_factory(entry, (False,))(0, 1)
    for value, wrapped in ((-half - 1, half - 1), (-half, -half),
                           (half - 1, half - 1), (half, -half),
                           (2 * half, 0), (-1, -1), (0, 0)):
        assert eval(code, {"x": value}) == wrapped, (bits, value)
        assert decoded_wrap([None, value]) == wrapped, (bits, value)
