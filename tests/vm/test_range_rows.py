"""The wrap rows range facts pick (``semantics.NO_WRAP``, ``WRAP_UP``,
``WRAP_DOWN``), at the edges of the range.

Each function holds one ``%r`` whose row a rule decides: a constant
operand (one side only can overflow), a dominating signed compare on an
edge whose target has one predecessor (no wrap), or a compare threaded
through an ``i1`` phi.  Every case runs on ``interp``, ``decoded`` and
``jit`` with ``x`` and ``y`` at MIN, MIN+1, MAX-1 and MAX: positive cases
must pick their row and still give the interpreter's value, negative
cases must keep the check, and their inputs make it wrap.
"""

import itertools

import pytest

from repro.analysis import AnalysisManager
from repro.ir import parse_module
from repro.vm import ExecutionEngine, semantics

from .test_semantics import assert_tiers_agree

WIDTHS = (8, 64)


def one_edge(pred, lhs, rhs, op, taken=True):
    """``%r = op`` on the edge of ``icmp pred lhs, rhs`` that is
    ``taken``; the other edge returns 0."""
    hit, miss = ("hit", "miss") if taken else ("miss", "hit")
    return f"""
entry:
  %c = icmp {pred} TY {lhs}, {rhs}
  br i1 %c, label %{hit}, label %{miss}
hit:
  %r = {op}
  ret TY %r
miss:
  ret TY 0
"""


def threaded(first, second_block, incoming, op):
    """C's ``first && ...``: an ``i1`` phi over ``first``'s edges."""
    return f"""
entry:
  %c = icmp {first}
  %e = icmp eq TY %x, %y
  br i1 %c, label %rhs, label %join
rhs:
{second_block}
  br label %join
join:
  %l = phi i1 {incoming}
  br i1 %l, label %hit, label %miss
hit:
  %r = {op}
  ret TY %r
miss:
  ret TY 0
"""


#: name -> (body over ``%x``/``%y`` of type ``TY``, the row ``%r`` takes)
CASES = {
    # local rules: a constant operand leaves one side to check
    "add_pos": ("entry:\n  %r = add TY %x, 1\n  ret TY %r\n", "add.up"),
    "sub_neg": ("entry:\n  %r = sub TY %x, -2\n  ret TY %r\n", "sub.up"),
    "negate": ("entry:\n  %r = sub TY 0, %x\n  ret TY %r\n", "sub.up"),
    "add_neg": ("entry:\n  %r = add TY %x, -1\n  ret TY %r\n", "add.down"),
    "sub_pos": ("entry:\n  %r = sub TY %x, 3\n  ret TY %r\n", "sub.down"),
    "not": ("entry:\n  %r = sub TY -1, %x\n  ret TY %r\n", "sub.nowrap"),
    # facts from one edge
    "lt_x": (one_edge("slt", "%x", "%y", "add TY %x, 1"), "add.nowrap"),
    "lt_y": (one_edge("slt", "%x", "%y", "sub TY %y, 1"), "sub.nowrap"),
    "gt_x": (one_edge("sgt", "%x", "%y", "add TY %x, -1"), "add.nowrap"),
    "le_const": (one_edge("sle", "%x", "100", "add TY %x, 27"),
                 "add.nowrap"),
    "const_lt": (one_edge("slt", "5", "%x", "sub TY %x, 6"), "sub.nowrap"),
    "ge_false": (one_edge("sge", "%x", "%y", "add TY %x, 1", taken=False),
                 "add.nowrap"),
    "dominated": ("""
entry:
  %c = icmp slt TY %x, %y
  br i1 %c, label %then, label %miss
then:
  %z = icmp eq TY %y, 0
  br i1 %z, label %side, label %join
side:
  br label %join
join:
  %r = add TY %x, 1
  ret TY %r
miss:
  ret TY 0
""", "add.nowrap"),
    # facts threaded through an ``i1`` phi
    "thread": (threaded("slt TY %x, %y", "  %d = icmp ne TY %y, 0",
                        "[ false, %entry ], [ %d, %rhs ]", "add TY %x, 1"),
               "add.nowrap"),
    "thread_cmp": (threaded("ne TY %y, 0", "  %d = icmp slt TY %x, 5",
                            "[ false, %entry ], [ %d, %rhs ]",
                            "add TY %x, 122"), "add.nowrap"),
    # negatives: the check stays, and these inputs make it wrap
    "le_max": (one_edge("sle", "%x", "%y", "add TY %x, 1"), "add.up"),
    "lt_two": (one_edge("slt", "%x", "%y", "add TY %x, 2"), "add.up"),
    "two_preds": ("""
entry:
  %c = icmp slt TY %x, %y
  br i1 %c, label %hit, label %other
other:
  br label %hit
hit:
  %r = add TY %x, 1
  ret TY %r
""", "add.up"),
    "thread_live_false": (
        threaded("slt TY %x, %y", "  %d = icmp ne TY %y, 0",
                 "[ %e, %entry ], [ %d, %rhs ]", "add TY %x, 1"),
        "add.up"),
}


def edge_values(bits):
    half = 1 << (bits - 1)
    return (-half, -half + 1, half - 2, half - 1)


def module_text(bits):
    ty = f"i{bits}"
    return "".join(
        f"\ndefine {ty} @{name}({ty} %x, {ty} %y) {{{body}}}\n"
        for name, (body, _) in CASES.items()).replace("TY", ty)


@pytest.mark.parametrize("bits", WIDTHS)
def test_rows_agree_with_the_interpreter_at_the_edges(bits):
    text = module_text(bits)
    values = edge_values(bits)
    assert_tiers_agree(text, [
        (name, pair) for name in CASES
        for pair in itertools.product(values, repeat=2)])


@pytest.mark.parametrize("bits", WIDTHS)
def test_each_rule_picks_its_row_in_both_tiers(bits):
    module = parse_module(module_text(bits))
    ranges = AnalysisManager().range_facts
    jit = ExecutionEngine(module, tier="jit")
    for func in module.functions:
        inst = next(i for i in func.instructions() if i.name == "r")
        entry = semantics.scalar_entry(inst, ranges(func))
        assert entry.name == CASES[func.name][1], func.name
        source = jit.get_compiled(func).__ir_source__()
        checked = "(_t :=" in source
        assert checked == (not entry.name.endswith(".nowrap")), source


@pytest.mark.parametrize("bits", WIDTHS)
def test_negative_cases_wrap(bits):
    """The kept checks are not dead: at MAX the interpreter wraps."""
    half = 1 << (bits - 1)
    engine = ExecutionEngine(parse_module(module_text(bits)), tier="interp")
    top = half - 1
    assert engine.run("le_max", top, top) == -half
    assert engine.run("lt_two", top - 1, top) == -half
    assert engine.run("two_preds", top, 0) == -half
    assert engine.run("thread_live_false", top, top) == -half


def test_both_tiers_share_one_analysis_per_code_version(monkeypatch):
    """A ``tiered`` function is decoded, then JIT'd: one ``ranges``
    computation serves both, and a body rewrite computes it afresh."""
    from repro.analysis import manager

    spec = manager.ANALYSES["ranges"]
    built = []

    def counting(*args):
        built.append(args[0].name)
        return spec.compute(*args)

    monkeypatch.setitem(manager.ANALYSES, "ranges",
                        spec._replace(compute=counting))
    engine = ExecutionEngine(parse_module(module_text(64)), tier="tiered",
                             call_threshold=2)
    for _ in range(3):
        assert engine.run("lt_x", 1, 2) == 2
    assert engine.profiler.profile_for("lt_x").promoted
    assert built == ["lt_x"]
    engine.invalidate(engine.module.get_function("lt_x"))
    assert engine.run("lt_x", 1, 2) == 2
    assert built == ["lt_x", "lt_x"]
