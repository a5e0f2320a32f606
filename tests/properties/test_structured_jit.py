"""The structured JIT on random control flow.

Up to eight blocks end in ``br``, ``br i1``, ``switch`` or ``ret`` to
arbitrary blocks, so the CFGs include irreducible cycles, loops with
several branching exits, switches with repeated cases and jumps past
merges.  Every block carries a fuel phi and an accumulator phi, and
divides by the fuel it has left: a run that never returns traps once
the fuel is spent, so every run terminates, and each block stores its
accumulator to ``@last``, so a trapping run still shows its path.
``tier="jit"`` must equal the tree-walker on value or trap and on
``@last``, and a function the JIT hands to the tree-walker must say why
in one of the documented escapes.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir import parse_module
from repro.ir import types as T
from repro.obs import events
from repro.obs.telemetry import Telemetry
from repro.vm import ExecutionEngine, Trap, load_scalar

FUEL = 24

#: the reasons ``vm/jit.py`` documents for leaving a function on the
#: tree-walker
ESCAPES = ("jump past a merge", "loops nested too deep",
           "nested deeper than the chain cap")

ARGUMENT_PAIRS = ((3, 5), (-7, 2), (40, -11))


@st.composite
def terminators(draw, count):
    """One block's terminator: (kind, targets, cases)."""
    target = st.integers(0, count - 1)
    kind = draw(st.sampled_from(["ret", "br", "condbr", "switch"]))
    if kind == "ret":
        return kind, [], []
    if kind == "br":
        return kind, [draw(target)], []
    if kind == "condbr":
        return kind, [draw(target), draw(target)], []
    # ``switch`` on the accumulator's low bits: cases may repeat a
    # constant (the first wins) and share targets
    cases = draw(st.lists(st.tuples(st.integers(0, 3), target),
                          min_size=1, max_size=4))
    return kind, [draw(target)] + [block for _, block in cases], cases


@st.composite
def cfgs(draw):
    count = draw(st.integers(1, 8))
    blocks = [draw(terminators(count)) for _ in range(count)]
    ops = [draw(st.sampled_from(["add", "mul", "xor", "sub"]))
           for _ in range(count)]
    operands = [draw(st.sampled_from(["%a", "%b", "3", "-5"]))
                for _ in range(count)]
    return blocks, ops, operands


def render(blocks, ops, operands) -> str:
    """The IR text of one generated CFG, as ``@f(i64 %a, i64 %b)``."""
    preds = {index: [] for index in range(len(blocks))}
    preds[0].append("entry")
    for index, (_, targets, _) in enumerate(blocks):
        for target in dict.fromkeys(targets):
            preds[target].append(f"b{index}")
    lines = ["@last = global i64 0", "",
             "define i64 @f(i64 %a, i64 %b) {", "entry:", "  br label %b0"]
    for index, (kind, targets, cases) in enumerate(blocks):
        lines.append(f"b{index}:")
        fuel, acc = f"%f{index}", f"%s{index}"
        if preds[index]:
            incoming = [
                (f"{FUEL}", "%a") if pred == "entry"
                else (f"%g{pred[1:]}", f"%k{pred[1:]}")
                for pred in preds[index]]
            lines.append(f"  {fuel} = phi i64 " + ", ".join(
                f"[ {f}, %{p} ]" for (f, _), p in zip(incoming,
                                                     preds[index])))
            lines.append(f"  {acc} = phi i64 " + ", ".join(
                f"[ {s}, %{p} ]" for (_, s), p in zip(incoming,
                                                     preds[index])))
        else:  # no way in: any values do
            fuel, acc = "1", "0"
        lines += [
            f"  %g{index} = sub i64 {fuel}, 1",
            f"  %q{index} = sdiv i64 {acc}, %g{index}",  # out of fuel: trap
            f"  %t{index} = {ops[index]} i64 {acc}, {operands[index]}",
            f"  %k{index} = add i64 %t{index}, %q{index}",
            f"  store i64 %k{index}, i64* @last",
        ]
        if kind == "ret":
            lines.append(f"  ret i64 %k{index}")
        elif kind == "br":
            lines.append(f"  br label %b{targets[0]}")
        elif kind == "condbr":
            lines += [f"  %c{index} = icmp slt i64 %k{index}, %b",
                      f"  br i1 %c{index}, label %b{targets[0]}, "
                      f"label %b{targets[1]}"]
        else:
            arms = " ".join(f"i64 {value}, label %b{block}"
                            for value, block in cases)
            lines += [f"  %w{index} = and i64 %k{index}, 3",
                      f"  switch i64 %w{index}, label %b{targets[0]} "
                      f"[ {arms} ]"]
    lines.append("}")
    return "\n".join(lines)


def outcome(engine, args):
    """Value or trap, and the accumulator of the last block that ran
    to its end: a run that traps still shows the path it took."""
    try:
        result = ("ok", engine.run("f", *args))
    except Trap:
        result = ("trap", None)
    last = engine.global_pointer(engine.module.get_global("last"))
    return result + (load_scalar(T.i64, last),)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfgs())
def test_jit_equals_the_tree_walker_on_random_cfgs(cfg):
    text = render(*cfg)
    jit = ExecutionEngine(parse_module(text), tier="jit",
                          telemetry=Telemetry())
    interp = ExecutionEngine(parse_module(text), tier="interp")
    for args in ARGUMENT_PAIRS:
        assert outcome(jit, args) == outcome(interp, args), (args, text)
    for event in jit.telemetry.events:
        if event["name"] == events.JIT_FALLBACK:
            assert event["args"]["reason"].startswith(ESCAPES), text
