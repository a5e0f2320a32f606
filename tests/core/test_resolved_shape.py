"""The shape of an inserted OSR point, now that the default resolved path
cuts the continuation from ``f`` itself and the hot counter is born in
SSA form: what the module gains, what the manager is asked, what the
instrumented function prints, and — wherever the check lands — the same
values as the reference interpreter."""

import pytest

from repro.analysis import default_manager
from repro.core import (
    HotCounterCondition,
    insert_mcosr_point,
    insert_resolved_osr_point,
)
from repro.core.instrument import split_block_at
from repro.ir import (
    BasicBlock,
    Function,
    IRBuilder,
    Module,
    parse_module,
    print_function,
    verify_function,
)
from repro.ir import types as T
from repro.mcvm import McVM
from repro.vm import ExecutionEngine

from ..conftest import ISORD_SRC, build_sum_loop, make_i64_array


def first_non_phi(block):
    return block.instructions[block.first_non_phi_index]


# -- what an insertion costs the module and the manager --------------------------


def test_default_insertion_solves_liveness_once(module, monkeypatch):
    func = build_sum_loop(module)
    manager = default_manager()
    asked = []
    get = manager.get

    def recording_get(name, function, _asked=True):
        asked.append((name, function.name))
        return get(name, function, _asked)

    monkeypatch.setattr(manager, "get", recording_get)
    insert_resolved_osr_point(
        func, first_non_phi(func.get_block("loop")), HotCounterCondition(10))
    assert [entry for entry in asked if entry[0] == "liveness"] == [
        ("liveness", "sum")]


def test_incomplete_mapping_is_still_refused(module):
    """The completeness check runs against the shared liveness result;
    an explicit variant still has its own landing state solved."""
    from repro.core import OSRError
    from repro.transform.clone import clone_function

    func = build_sum_loop(module)
    variant, vmap = clone_function(func, "sum.v2")
    with pytest.raises(OSRError, match="missing live value"):
        insert_resolved_osr_point(
            func, first_non_phi(func.get_block("loop")),
            HotCounterCondition(10), variant=variant,
            landing=vmap[func.get_block("loop")], mapping={})


def test_one_condition_object_serves_two_insertions(module):
    condition = HotCounterCondition(10)
    engine = ExecutionEngine(module)
    for name in ("first", "second"):
        func = build_sum_loop(module, name)
        insert_resolved_osr_point(
            func, first_non_phi(func.get_block("loop")), condition,
            engine=engine)
    assert engine.run("first", 100) == engine.run("second", 100) == 4950


# -- Figure 5 -------------------------------------------------------------------

FIGURE_5 = """\
define i32 @isord(i64* %v, i64 %n, i32 (i8*, i8*)* %c) {
entry:
  %t0 = icmp sgt i64 %n, 1
  br i1 %t0, label %loop.body, label %exit

loop.header:
  %t1 = icmp slt i64 %i1, %n
  br i1 %t1, label %loop.body, label %exit

loop.body:
  %p.osr.phi = phi i64 [ 1000, %entry ], [ %p.osr1, %loop.header ]
  %i = phi i64 [ %i1, %loop.header ], [ 1, %entry ]
  %p.osr1 = add nsw i64 %p.osr.phi, -1
  %osr.cond = icmp eq i64 %p.osr1, 0
  br i1 %osr.cond, label %osr, label %loop.body.cont

loop.body.cont:
  %t2 = getelementptr inbounds i64, i64* %v, i64 %i
  %t3 = add nsw i64 %i, -1
  %t4 = getelementptr inbounds i64, i64* %v, i64 %t3
  %t5 = bitcast i64* %t4 to i8*
  %t6 = bitcast i64* %t2 to i8*
  %t7 = tail call i32 %c(i8* %t5, i8* %t6)
  %t8 = icmp sgt i32 %t7, 0
  %i1 = add nuw nsw i64 %i, 1
  br i1 %t8, label %exit, label %loop.header

exit:
  %res = phi i32 [ 1, %entry ], [ 1, %loop.header ], [ 0, %loop.body.cont ]
  ret i32 %res

osr:
  %osr.res = tail call i32 @isordto(i64* %v, i64 %n, i32 (i8*, i8*)* %c, i64 %i)
  ret i32 %osr.res
}"""


def test_figure_5_prints_the_fused_counter():
    """Byte for byte what the alloca + targeted-mem2reg path printed,
    but for the phi's name (it was ``%p.osr.slot.phi``, after a slot that
    no longer exists) and the continuation's (``@isord.cloneto``, after a
    clone that no longer exists)."""
    module = parse_module(ISORD_SRC)
    func = module.get_function("isord")
    insert_resolved_osr_point(
        func, first_non_phi(func.get_block("loop.body")),
        HotCounterCondition(1000))
    assert print_function(func).strip() == FIGURE_5


# -- wherever the check lands, the interpreter's values ----------------------------

BRANCHY_LOOP = """
define i64 @collatz_steps(i64 %n) {
entry:
  br label %head
head:
  %x = phi i64 [ %n, %entry ], [ %next, %latch ]
  %steps = phi i64 [ 0, %entry ], [ %steps1, %latch ]
  %done = icmp sle i64 %x, 1
  br i1 %done, label %exit, label %body
body:
  %bit = and i64 %x, 1
  %odd = icmp eq i64 %bit, 1
  br i1 %odd, label %up, label %down
up:
  %x3 = mul i64 %x, 3
  %xu = add i64 %x3, 1
  br label %latch
down:
  %xd = sdiv i64 %x, 2
  br label %latch
latch:
  %next = phi i64 [ %xu, %up ], [ %xd, %down ]
  %steps1 = add i64 %steps, 1
  br label %head
exit:
  ret i64 %steps
}
"""


def oracle(source, name, *args):
    return ExecutionEngine(parse_module(source), tier="interp").run(
        name, *args)


@pytest.mark.parametrize("tier", ["jit", "decoded"])
@pytest.mark.parametrize("threshold", [1, 2])
def test_check_in_the_entry_block(tier, threshold):
    """Threshold 1 fires on entry, every call; 2 never does (the entry
    block runs once per call and the counter starts over each time)."""
    module = Module("m")
    func = build_sum_loop(module)
    engine = ExecutionEngine(module, tier=tier)
    point = insert_resolved_osr_point(
        func, first_non_phi(func.entry), HotCounterCondition(threshold),
        engine=engine)
    assert point.osr_block.predecessors() == [func.entry]
    assert "phi i64 [ " + str(threshold) not in print_function(func)
    for n in (0, 1, 7, 100):
        assert engine.run("sum", n) == sum(range(n))


@pytest.mark.parametrize("tier", ["jit", "decoded"])
@pytest.mark.parametrize("block", ["up", "down", "body", "latch"])
def test_check_in_a_non_header_block_inside_a_loop(tier, block):
    """The counter needs a phi at the header *and* one wherever the arm
    holding the check rejoins the others."""
    module = parse_module(BRANCHY_LOOP)
    func = module.get_function("collatz_steps")
    engine = ExecutionEngine(module, tier=tier)
    insert_resolved_osr_point(
        func, first_non_phi(func.get_block(block)), HotCounterCondition(5),
        engine=engine)
    verify_function(func)
    for n in (1, 6, 27, 97):
        assert engine.run("collatz_steps", n) == oracle(
            BRANCHY_LOOP, "collatz_steps", n)


@pytest.mark.parametrize("tier", ["jit", "decoded"])
def test_two_points_in_one_function(tier):
    module = parse_module(BRANCHY_LOOP)
    func = module.get_function("collatz_steps")
    engine = ExecutionEngine(module, tier=tier)
    condition = HotCounterCondition(4)
    for block in ("up", "down"):
        insert_resolved_osr_point(
            func, first_non_phi(func.get_block(block)), condition,
            engine=engine)
    verify_function(func)
    assert [f.name for f in module.functions] == [
        "collatz_steps", "collatz_stepsto", "collatz_stepsto.1"]
    for n in (1, 6, 27, 97):
        assert engine.run("collatz_steps", n) == oracle(
            BRANCHY_LOOP, "collatz_steps", n)


@pytest.mark.parametrize("tier", ["jit", "decoded"])
def test_mcosr_baseline_counter_restarts_along_restore(tier):
    """The McOSR baseline re-enters through ``osr.restore``: the counter
    gets a phi in the landing block that takes the threshold there."""
    module = Module("m")
    func = build_sum_loop(module)
    engine = ExecutionEngine(module, tier=tier)
    point = insert_mcosr_point(
        func, first_non_phi(func.get_block("loop")), HotCounterCondition(10),
        engine=engine)
    text = print_function(func)
    assert "alloca" not in text
    assert "phi i64 [ 10, %osr.restore ], [ %p.osr1, %loop ]" in text
    assert point.landing_block.name == "loop.cont"
    for n in (0, 5, 10, 11, 100):
        assert engine.run("sum", n) == sum(range(n))


FEVAL_SRC = """
function y = sq(x)
  y = x * x;
end

function w = accumulate(g, n)
  w = 0.0;
  i = 0.0;
  while i < n
    w = w + feval(g, i);
    i = i + 1.0;
  end
end
"""


def test_feval_point_is_lifted_and_agrees_with_the_plain_vm():
    plain = McVM(FEVAL_SRC, enable_osr=False)
    vm = McVM(FEVAL_SRC, enable_osr=True)
    for n in (0, 1, 3, 50):
        assert vm.run("accumulate", "@sq", n) == plain.run(
            "accumulate", "@sq", n)
    assert vm.stats["feval_optimizations"] == 1
    (point,) = vm.osr_points
    text = print_function(point.function)
    assert "alloca" not in text      # the frame was lifted with the point in
    assert "%p.osr.phi = phi i64 [ 2, " in text
    verify_function(point.function)


def test_isord_fires_mid_loop_with_the_interpreters_answer():
    def run(engine, values):
        compare = engine.handle_for(engine.module.get_function("cmplt"))
        return engine.run("isord", make_i64_array(values), len(values),
                          compare)

    module = parse_module(ISORD_SRC)
    func = module.get_function("isord")
    engine = ExecutionEngine(module)
    insert_resolved_osr_point(
        func, first_non_phi(func.get_block("loop.body")),
        HotCounterCondition(3), engine=engine)
    reference = ExecutionEngine(parse_module(ISORD_SRC), tier="interp")
    for values in ([1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 9, 5, 6, 7, 8]):
        assert run(engine, values) == run(reference, values)


# -- the pieces underneath ---------------------------------------------------------


def test_split_moves_a_long_tail_in_one_piece():
    """2 000 instructions after the split point: the tail moves as one
    slice (it used to be a ``list.remove`` per instruction)."""
    func = Function(T.function(T.i64, T.i64), "long", ["x"])
    Module("m").add_function(func)
    head = BasicBlock("head", func)
    body = BasicBlock("body", func)
    IRBuilder(head).br(body)
    builder = IRBuilder(body)
    phi = builder.phi(T.i64, "p", [(func.args[0], head)])
    value = phi
    for index in range(2000):
        value = builder.add(value, builder.const_i64(index), f"a{index}")
    builder.ret(value)
    tail = body.instructions[1:]

    cont = split_block_at(tail[0])
    assert body.instructions[0] is phi
    assert [i.opcode for i in body.instructions[1:]] == ["br"]
    assert cont.instructions == tail
    assert all(inst.parent is cont for inst in tail)
    verify_function(func)
    engine = ExecutionEngine(func.module, tier="interp")
    assert engine.run("long", 1) == 1 + sum(range(2000))
