"""Hypothesis strategies generating random, well-formed IR programs.

The generator builds functions with a guaranteed-terminating counted loop
whose body is a random DAG of side-effect-free integer operations and
optional if/else diamonds.  Division and shifts are guarded structurally
(divisor forced odd via ``| 1``, shift amounts masked), so generated
programs never trap — any interp/JIT divergence is a genuine semantics
bug, not UB.

``cfgs()`` draws arbitrary control flow instead — up to eight blocks
ending in ``br``, ``br i1``, ``switch`` or ``ret`` to any block, with
irreducible cycles and unreachable blocks among them — and ``render``
turns one into IR text whose block ``%b<i>`` defines ``%k<i>``.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.ir import types as T
from repro.ir.builder import IRBuilder
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.values import ConstantInt
from repro.ir.verifier import verify_function

#: opcodes safe to apply to arbitrary operands
SAFE_BINOPS = ["add", "sub", "mul", "and", "or", "xor"]
ICMP_PREDS = ["eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule"]


@st.composite
def op_specs(draw, max_ops=12):
    """A list of abstract op descriptors; indices refer to prior values."""
    count = draw(st.integers(min_value=1, max_value=max_ops))
    ops = []
    for index in range(count):
        kind = draw(st.sampled_from(
            ["binop", "binop", "binop", "select", "sdiv", "shift"]
        ))
        a = draw(st.integers(min_value=0, max_value=index + 2))
        b = draw(st.integers(min_value=0, max_value=index + 2))
        c = draw(st.integers(min_value=0, max_value=index + 2))
        opcode = draw(st.sampled_from(SAFE_BINOPS))
        pred = draw(st.sampled_from(ICMP_PREDS))
        const = draw(st.integers(min_value=-(2**40), max_value=2**40))
        ops.append((kind, opcode, pred, a, b, c, const))
    return ops


@st.composite
def program_specs(draw):
    """Abstract description of a whole function."""
    return {
        "nargs": draw(st.integers(min_value=1, max_value=3)),
        "trip_count": draw(st.integers(min_value=0, max_value=12)),
        "loop_ops": draw(op_specs()),
        "tail_ops": draw(op_specs(max_ops=6)),
        "use_diamond": draw(st.booleans()),
        "bits": draw(st.sampled_from([8, 32, 64])),
    }


def _emit_ops(builder, ops, pool, ty):
    """Materialize abstract ops against a pool of available values."""
    for kind, opcode, pred, a, b, c, const in ops:
        pick = lambda i: pool[i % len(pool)]
        if kind == "binop":
            value = getattr(builder, {"and": "and_", "or": "or_"}.get(
                opcode, opcode))(pick(a), pick(b))
        elif kind == "select":
            cond = builder.icmp(pred, pick(a), pick(b))
            value = builder.select(cond, pick(c), ConstantInt(ty, const))
        elif kind == "sdiv":
            # force the divisor odd (never zero)
            divisor = builder.or_(pick(b), ConstantInt(ty, 1))
            value = builder.sdiv(pick(a), divisor)
        else:  # shift, amount masked into range
            amount = builder.and_(pick(b), ConstantInt(ty, ty.bits - 1))
            value = builder.shl(pick(a), amount)
        pool.append(value)
    return pool


def build_program(spec, module: Module, name: str = "prog") -> Function:
    """Materialize a spec into a verified IR function."""
    ty = T.int_type(spec["bits"])
    fnty = T.FunctionType(ty, [ty] * spec["nargs"])
    func = Function(fnty, name, [f"a{i}" for i in range(spec["nargs"])])
    module.add_function(func)

    entry = BasicBlock("entry", func)
    loop = BasicBlock("loop", func)
    body = BasicBlock("body", func)
    latch = BasicBlock("latch", func)
    exit_block = BasicBlock("exit", func)

    b = IRBuilder(entry)
    b.br(loop)

    b.position_at_end(loop)
    i_phi = b.phi(ty, "i")
    acc_phi = b.phi(ty, "acc")
    trip = ConstantInt(ty, spec["trip_count"])
    more = b.icmp("slt", i_phi, trip, "more")
    b.cond_br(more, body, exit_block)

    b.position_at_end(body)
    pool = list(func.args) + [i_phi, acc_phi]
    pool = _emit_ops(b, spec["loop_ops"], pool, ty)
    body_value = pool[-1]
    if spec["use_diamond"]:
        then_block = BasicBlock("then", func)
        else_block = BasicBlock("else", func)
        join = BasicBlock("join", func)
        cond = b.icmp("slt", body_value, ConstantInt(ty, 0), "dia")
        b.cond_br(cond, then_block, else_block)
        b.position_at_end(then_block)
        then_value = b.xor(body_value, ConstantInt(ty, 0x55))
        b.br(join)
        b.position_at_end(else_block)
        else_value = b.add(body_value, ConstantInt(ty, 3))
        b.br(join)
        b.position_at_end(join)
        merged = b.phi(ty, "merge")
        merged.add_incoming(then_value, then_block)
        merged.add_incoming(else_value, else_block)
        body_value = merged
    acc_next = b.add(acc_phi, body_value, "acc.next")
    b.br(latch)

    b.position_at_end(latch)
    i_next = b.add(i_phi, ConstantInt(ty, 1), "i.next")
    b.br(loop)

    i_phi.add_incoming(ConstantInt(ty, 0), entry)
    i_phi.add_incoming(i_next, latch)
    acc_phi.add_incoming(ConstantInt(ty, 0), entry)
    acc_phi.add_incoming(acc_next, latch)

    b.position_at_end(exit_block)
    out_phi = b.phi(ty, "out")
    out_phi.add_incoming(acc_phi, loop)
    tail_pool = _emit_ops(b, spec["tail_ops"],
                          list(func.args) + [out_phi], ty)
    final = b.add(tail_pool[-1], out_phi, "ret.val")
    b.ret(final)

    verify_function(func)
    return func


@st.composite
def arguments_for(draw, spec):
    ty = T.int_type(spec["bits"])
    return [
        draw(st.integers(min_value=ty.min_value, max_value=ty.max_signed))
        for _ in range(spec["nargs"])
    ]


@st.composite
def float_op_specs(draw, max_ops=10):
    """Abstract float ops; indices refer to prior values in the pool."""
    count = draw(st.integers(min_value=1, max_value=max_ops))
    ops = []
    for index in range(count):
        kind = draw(st.sampled_from(
            ["fadd", "fsub", "fmul", "fdiv", "select", "convert"]
        ))
        a = draw(st.integers(min_value=0, max_value=index + 2))
        b = draw(st.integers(min_value=0, max_value=index + 2))
        pred = draw(st.sampled_from(["olt", "ole", "ogt", "oge", "oeq"]))
        const = draw(st.floats(min_value=-1e6, max_value=1e6,
                               allow_nan=False, allow_infinity=False))
        ops.append((kind, pred, a, b, const))
    return ops


@st.composite
def float_program_specs(draw):
    return {
        "trip_count": draw(st.integers(min_value=0, max_value=10)),
        "ops": draw(float_op_specs()),
    }


def build_float_program(spec, module: Module, name: str = "fprog") -> Function:
    """A float loop: acc folds a random f64 expression each iteration."""
    from repro.ir.values import ConstantFloat

    ty = T.f64
    fnty = T.FunctionType(ty, [ty, ty])
    func = Function(fnty, name, ["a", "b"])
    module.add_function(func)

    entry = BasicBlock("entry", func)
    loop = BasicBlock("loop", func)
    body = BasicBlock("body", func)
    exit_block = BasicBlock("exit", func)

    b = IRBuilder(entry)
    b.br(loop)

    b.position_at_end(loop)
    i_phi = b.phi(T.i64, "i")
    acc_phi = b.phi(ty, "acc")
    trip = ConstantInt(T.i64, spec["trip_count"])
    more = b.icmp("slt", i_phi, trip, "more")
    b.cond_br(more, body, exit_block)

    b.position_at_end(body)
    fi = b.sitofp(i_phi, ty, "fi")
    pool = [func.args[0], func.args[1], fi, acc_phi]
    for kind, pred, ia, ib, const in spec["ops"]:
        pick = lambda k: pool[k % len(pool)]
        if kind == "fadd":
            value = b.fadd(pick(ia), pick(ib))
        elif kind == "fsub":
            value = b.fsub(pick(ia), pick(ib))
        elif kind == "fmul":
            value = b.fmul(pick(ia), pick(ib))
        elif kind == "fdiv":
            # guard the divisor away from zero: |x| + 1.0
            guarded = b.fadd(
                b.select(b.fcmp("olt", pick(ib), ConstantFloat(ty, 0.0)),
                         b.fsub(ConstantFloat(ty, 0.0), pick(ib)),
                         pick(ib)),
                ConstantFloat(ty, 1.0),
            )
            value = b.fdiv(pick(ia), guarded)
        elif kind == "select":
            cond = b.fcmp(pred, pick(ia), pick(ib))
            value = b.select(cond, pick(ia), ConstantFloat(ty, const))
        else:  # convert: f64 -> i64 -> f64 (fptosi may overflow: clamp)
            small = b.fdiv(pick(ia), ConstantFloat(ty, 1e12))
            as_int = b.cast("fptosi", small, T.i64)
            value = b.sitofp(as_int, ty)
        pool.append(value)
    acc_next = b.fadd(acc_phi, pool[-1], "acc.next")
    i_next = b.add(i_phi, ConstantInt(T.i64, 1), "i.next")
    b.br(loop)

    i_phi.add_incoming(ConstantInt(T.i64, 0), entry)
    i_phi.add_incoming(i_next, body)
    acc_phi.add_incoming(ConstantFloat(ty, 0.0), entry)
    acc_phi.add_incoming(acc_next, body)

    b.position_at_end(exit_block)
    out = b.phi(ty, "out")
    out.add_incoming(acc_phi, loop)
    b.ret(out)

    verify_function(func)
    return func


# -- random control flow ---------------------------------------------------------

#: the fuel each ``cfgs()`` function starts with: a run that never
#: returns traps once it is spent
FUEL = 24


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
    """``(blocks, ops, operands)``: each block's terminator, and the
    opcode and second operand of the step that computes its ``%t<i>``."""
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
