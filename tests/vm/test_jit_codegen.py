"""JIT code-generation tests: inspect the Python code the JIT emits (via
the on-demand ``__ir_source__`` unparse) and the lazy-compilation
trampoline behaviour."""

import ast
import marshal
import re
import struct

import pytest

from repro.ir import parse_module
from repro.obs import events
from repro.obs.telemetry import Telemetry
from repro.vm import ExecutionEngine
from repro.vm.jit import FunctionCompiler, compile_function
from repro.vm.runtime import NULL, MemoryBuffer

from .test_semantics import outcome


COUNTED_LOOP = """
define i64 @f(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %body ]
  %acc = phi i64 [ 0, %entry ], [ %acc1, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %out
body:
  %acc1 = add i64 %acc, %i
  %i1 = add i64 %i, 1
  br label %loop
out:
  ret i64 %acc
}
"""


def dispatches(text):
    """Does generated source use the block-dispatch variable?"""
    return re.search(r"\b_b\b", text) is not None


def source_of(src, name):
    module = parse_module(src)
    engine = ExecutionEngine(module)
    compiled = compile_function(module.get_function(name), engine)
    return compiled.__ir_source__(), compiled, engine


class TestGeneratedSource:
    def test_straight_line_code_has_no_dispatch_and_no_loop(self):
        text, _, _ = source_of("""
define i64 @f(i64 %n) {
entry:
  %c = icmp sgt i64 %n, 0
  br i1 %c, label %pos, label %neg
pos:
  ret i64 %n
neg:
  ret i64 0
}
""", "f")
        assert not dispatches(text)
        assert "while" not in text

    def test_counted_loop_is_one_while(self):
        text, compiled, _ = source_of(COUNTED_LOOP, "f")
        assert text.count("while True:") == 1
        assert not dispatches(text)
        assert "continue" not in text  # the back edge ends the body
        assert compiled(5) == 10

    def test_phi_parallel_assignment(self):
        text, _, _ = source_of("""
define i64 @f(i64 %n) {
entry:
  br label %loop
loop:
  %a = phi i64 [ 1, %entry ], [ %b, %loop ]
  %b = phi i64 [ 2, %entry ], [ %a, %loop ]
  %c = icmp slt i64 %b, %n
  br i1 %c, label %loop, label %out
out:
  ret i64 %a
}
""", "f")
        # the edge transfer must be one simultaneous tuple assignment:
        # on the back edge, a and b swap in a single statement
        swaps = [
            node for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Tuple)
            and isinstance(node.value, ast.Tuple)
        ]
        assert swaps, text
        back_edge = swaps[-1]
        lhs = [n.id for n in back_edge.targets[0].elts]
        rhs = [n.id for n in back_edge.value.elts]
        assert rhs == list(reversed(lhs))  # the swap

        # ...and behaviourally: results alternate with the trip count
        module = parse_module("""
define i64 @f(i64 %n) {
entry:
  br label %loop
loop:
  %a = phi i64 [ 1, %entry ], [ %b, %loop ]
  %b = phi i64 [ 2, %entry ], [ %a, %loop ]
  %c = icmp slt i64 %b, %n
  br i1 %c, label %loop, label %out
out:
  ret i64 %a
}
""")
        engine = ExecutionEngine(module)
        assert engine.run("f", 0) == 1

    def test_wrapping_inline_masks(self):
        text, _, _ = source_of("""
define i8 @f(i8 %a, i8 %b) {
entry:
  %s = add i8 %a, %b
  ret i8 %s
}
""", "f")
        assert "& 255" in text  # i8 mask inlined, no helper call

    def test_unsigned_compare_masks_operands(self):
        text, _, _ = source_of("""
define i1 @f(i64 %a, i64 %b) {
entry:
  %c = icmp ult i64 %a, %b
  ret i1 %c
}
""", "f")
        assert "& 18446744073709551615" in text

    def test_compare_with_only_its_branch_as_use_is_the_if_test(self):
        text, _, engine = source_of("""
define i64 @f(i64 %a, i64 %b) {
entry:
  %c = icmp slt i64 %a, %b
  %s = add i64 %a, %b
  br i1 %c, label %lt, label %ge
lt:
  ret i64 %s
ge:
  ret i64 0
}
""", "f")
        tests = [node.test for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.If)
                 and isinstance(node.test, ast.Compare)
                 and isinstance(node.test.ops[0], ast.Lt)]
        assert len(tests) == 1, text
        assert "1 if" not in text  # the i1 is never materialised
        assert engine.run("f", 2, 5) == 7
        assert engine.run("f", 5, 2) == 0

    def test_compare_with_another_use_keeps_its_value(self):
        text, _, engine = source_of("""
define i64 @f(double %a, i8* %p) {
entry:
  %c = fcmp uno double %a, %a
  br i1 %c, label %isnan, label %num
isnan:
  %w = zext i1 %c to i64
  ret i64 %w
num:
  %q = icmp ne i8* %p, null
  br i1 %q, label %set, label %unset
set:
  ret i64 2
unset:
  ret i64 3
}
""", "f")
        assert text.count("1 if") == 1  # %c has a second use, %q has not
        assert engine.run("f", float("nan"), NULL) == 1
        assert engine.run("f", 1.5, NULL) == 3
        assert engine.run("f", 1.5, (MemoryBuffer(8, "p"), 0)) == 2

    def test_direct_call_binds_trampoline(self):
        src = """
define i64 @leaf(i64 %x) {
entry:
  ret i64 %x
}

define i64 @caller(i64 %x) {
entry:
  %r = call i64 @leaf(i64 %x)
  ret i64 %r
}
"""
        module = parse_module(src)
        engine = ExecutionEngine(module)
        compiled = compile_function(module.get_function("caller"), engine)
        namespace_key = "_f_leaf"
        # before the first call, the slot holds a trampoline
        trampoline = compiled.__globals__[namespace_key]
        assert trampoline.__name__ == "trampoline_leaf"
        assert compiled(7) == 7
        # after the call, the namespace was patched to the compiled leaf
        patched = compiled.__globals__[namespace_key]
        assert patched is not trampoline

    def test_gep_constant_folding_in_source(self):
        text, _, _ = source_of("""
define i64 @f(i64* %p) {
entry:
  %q = getelementptr i64, i64* %p, i64 3
  %v = load i64, i64* %q
  ret i64 %v
}
""", "f")
        assert "+ 24" in text  # 3 * sizeof(i64) folded at compile time

    def test_switch_lowering(self):
        text, compiled, engine = source_of("""
define i64 @f(i64 %x) {
entry:
  switch i64 %x, label %d [ i64 1, label %a i64 2, label %bb ]
a:
  ret i64 10
bb:
  ret i64 20
d:
  ret i64 0
}
""", "f")
        assert compiled(1) == 10
        assert compiled(2) == 20
        assert compiled(3) == 0

    def test_source_produced_on_demand(self):
        text, compiled, _ = source_of("""
define i64 @f() {
entry:
  ret i64 1
}
""", "f")
        # __ir_source__ is the artifact's lazy unparse hook: nothing is
        # stored until the first request, then the string is cached
        artifact = compiled.__ir_artifact__
        assert compiled.__ir_source__() is artifact.source
        assert "def _jit_f" in text
        # the unparsed debugging source is real Python for the same body
        ast.parse(text)

    def test_no_eager_source_on_artifact(self):
        module = parse_module("""
define i64 @f() {
entry:
  ret i64 1
}
""")
        from repro.vm import codegen_function

        artifact = codegen_function(module.get_function("f"))
        assert artifact._source is None  # nothing paid until asked
        assert "def _jit_f" in artifact.source
        assert artifact._source is not None  # cached after first unparse


    def test_trap_in_jit_code_names_its_frame_and_source_is_on_demand(self):
        """Nodes are stamped with their location as they are built (no
        ``fix_missing_locations`` walk): the code object still carries
        one, a trap's traceback still names the ``<jit:@f>`` frame, and
        the frame's function still unparses its source when asked."""
        import traceback

        from repro.vm import Trap

        module = parse_module("""
define i64 @f(i64 %a, i64 %b) {
entry:
  %q = udiv i64 %a, %b
  ret i64 %q
}
""")
        engine = ExecutionEngine(module, tier="jit")
        assert engine.run("f", 7, 2) == 3
        compiled = compile_function(module.get_function("f"), engine)
        artifact = compiled.__ir_artifact__
        assert artifact._source is None
        with pytest.raises(Trap) as info:
            engine.run("f", 1, 0)
        frames = traceback.extract_tb(info.tb)
        (jit_frame,) = [f for f in frames if f.filename == "<jit:@f>"]
        assert (jit_frame.name, jit_frame.lineno) == ("_jit_f", 1)
        assert artifact._source is None  # a traceback alone costs nothing
        text = compiled.__ir_source__()
        assert "def _jit_f(" in text and "_nz(" in text
        ast.parse(text)

    def test_every_located_node_carries_the_one_location(self):
        """What ``fix_missing_locations`` would have filled in, present
        from construction: ``compile()`` refuses a tree with a hole."""
        module = parse_module(TestDeterminism.SRC)
        tree = FunctionCompiler(module.get_function("f")).build_tree()
        located = [node for node in ast.walk(tree)
                   if "lineno" in node._attributes]
        assert len(located) > 40
        assert {(node.lineno, node.col_offset) for node in located} == {
            (1, 0)}
        compile(tree, "<test>", "exec")


class TestDeterminism:
    SRC = """
define i64 @f(i64 %n) {
entry:
  %z = icmp sgt i64 %n, 0
  br i1 %z, label %loop, label %out
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc1, %loop ]
  %acc1 = add i64 %acc, %i
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, %n
  br i1 %c, label %loop, label %out
out:
  %r = phi i64 [ 0, %entry ], [ %acc1, %loop ]
  ret i64 %r
}
"""

    def test_same_ir_gives_byte_identical_code(self):
        """The artifact cache key (code_version/shape) is only sound if
        codegen is a pure function of the IR body."""
        module = parse_module(self.SRC)
        func = module.get_function("f")
        one = FunctionCompiler(func).compile()
        two = FunctionCompiler(func).compile()
        assert marshal.dumps(one.code) == marshal.dumps(two.code)
        assert one.bindings.keys() == two.bindings.keys()

    def test_reparsed_ir_gives_byte_identical_code(self):
        """Even a fresh parse of the same text lowers identically."""
        one = FunctionCompiler(
            parse_module(self.SRC).get_function("f")).compile()
        two = FunctionCompiler(
            parse_module(self.SRC).get_function("f")).compile()
        assert marshal.dumps(one.code) == marshal.dumps(two.code)

    def test_unparse_matches_compiled_code(self):
        """ir_source() re-lowers the same body: the text it returns
        compiles to code behaviourally identical to what is executing."""
        module = parse_module(self.SRC)
        func = module.get_function("f")
        engine = ExecutionEngine(module)
        compiled = compile_function(func, engine)
        artifact = compiled.__ir_artifact__
        recompiled = compile(artifact.source, f"<jit:@{func.name}>", "exec")
        namespace = dict(compiled.__globals__)
        exec(recompiled, namespace)
        from_text = namespace[artifact.py_name]
        for n in (0, 1, 5, 10):
            assert from_text(n) == compiled(n)


class TestRedirection:
    def test_handle_invalidation_redirects_calls(self):
        """After invalidate(), function handles pick up new code — the
        mechanism OSR relies on to swap versions."""
        src = """
define i64 @f() {
entry:
  ret i64 1
}

define i64 @g() {
entry:
  ret i64 2
}
"""
        module = parse_module(src)
        engine = ExecutionEngine(module)
        handle = engine.handle_for(module.get_function("f"))
        assert handle() == 1
        # redirect the handle to g (what version replacement does)
        handle.function = module.get_function("g")
        handle.invalidate()
        assert handle() == 2


# -- structured control flow -------------------------------------------------------

DIAMOND = """
define i64 @f(i64 %a, i64 %b) {
entry:
  %c = icmp slt i64 %a, %b
  br i1 %c, label %lt, label %ge
lt:
  %x = add i64 %a, 1
  br label %join
ge:
  %y = sdiv i64 %a, %b
  br label %join
join:
  %r = phi i64 [ %x, %lt ], [ %y, %ge ]
  %s = mul i64 %r, 3
  ret i64 %s
}
"""

TRIANGLE = """
define i64 @f(i64 %a, i64 %b) {
entry:
  %c = icmp sgt i64 %a, 10
  br i1 %c, label %clamp, label %join
clamp:
  %h = srem i64 100, %b
  br label %join
join:
  %r = phi i64 [ %a, %entry ], [ %h, %clamp ]
  ret i64 %r
}
"""

#: odd ``j`` is a ``continue``, ``i * j > 20`` a ``break``
NESTED_BREAK_CONTINUE = """
define i64 @f(i64 %n, i64 %m) {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %i1, %outer.latch ]
  %acc = phi i64 [ 0, %entry ], [ %acc3, %outer.latch ]
  %oc = icmp slt i64 %i, %n
  br i1 %oc, label %inner, label %done
inner:
  %j = phi i64 [ 0, %outer ], [ %j1, %inner.latch ]
  %acc1 = phi i64 [ %acc, %outer ], [ %acc2, %inner.latch ]
  %ic = icmp slt i64 %j, %m
  br i1 %ic, label %body, label %outer.latch
body:
  %odd = and i64 %j, 1
  %isodd = icmp eq i64 %odd, 1
  br i1 %isodd, label %inner.latch, label %work
work:
  %p = mul i64 %i, %j
  %big = icmp sgt i64 %p, 20
  br i1 %big, label %outer.latch, label %add
add:
  %sum = add i64 %acc1, %p
  br label %inner.latch
inner.latch:
  %acc2 = phi i64 [ %acc1, %body ], [ %sum, %add ]
  %j1 = add i64 %j, 1
  br label %inner
outer.latch:
  %acc3 = phi i64 [ %acc1, %inner ], [ %acc1, %work ]
  %i1 = add i64 %i, 1
  br label %outer
done:
  ret i64 %acc
}
"""

RET_IN_NESTED_LOOP = """
define i64 @f(i64 %n, i64 %key) {
entry:
  br label %outer
outer:
  %i = phi i64 [ 1, %entry ], [ %i1, %outer.latch ]
  %oc = icmp sle i64 %i, %n
  br i1 %oc, label %inner, label %miss
inner:
  %j = phi i64 [ 1, %outer ], [ %j1, %inner.latch ]
  %ic = icmp sle i64 %j, %n
  br i1 %ic, label %test, label %outer.latch
test:
  %q = sdiv i64 %key, %j
  %hit = icmp eq i64 %q, %i
  br i1 %hit, label %found, label %inner.latch
found:
  %k = mul i64 %i, 1000
  %code = add i64 %k, %j
  ret i64 %code
inner.latch:
  %j1 = add i64 %j, 1
  br label %inner
outer.latch:
  %i1 = add i64 %i, 1
  br label %outer
miss:
  ret i64 -1
}
"""

SELF_LOOP = """
define i64 @f(i64 %n, i64 %d) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  %s = sdiv i64 9, %d
  %i1 = add i64 %i, %s
  %c = icmp slt i64 %i1, %n
  br i1 %c, label %loop, label %out
out:
  ret i64 %i1
}
"""

#: both exits still have a branch to take, so neither can sit in the loop
TWO_EXIT_LOOP = """
define i64 @f(i64 %n, i64 %d) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %latch ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exhausted
body:
  %r = srem i64 %i, %d
  %z = icmp eq i64 %r, 5
  br i1 %z, label %early, label %latch
latch:
  %i1 = add i64 %i, 1
  br label %loop
exhausted:
  %ec = icmp sgt i64 %n, 3
  br i1 %ec, label %big, label %small
early:
  %fc = icmp sgt i64 %i, 6
  br i1 %fc, label %big, label %small
big:
  %bv = phi i64 [ %n, %exhausted ], [ %i, %early ]
  ret i64 %bv
small:
  %sv = phi i64 [ -1, %exhausted ], [ -2, %early ]
  ret i64 %sv
}
"""

#: ``a`` and ``b`` form a cycle entered at either: no natural loop
TWO_ENTRY_CYCLE = """
define i64 @f(i64 %n, i64 %side) {
entry:
  %s = icmp ne i64 %side, 0
  br i1 %s, label %a, label %b
a:
  %x = phi i64 [ 0, %entry ], [ %y1, %b ]
  %x1 = add i64 %x, 1
  %ca = icmp slt i64 %x1, %n
  br i1 %ca, label %b, label %out
b:
  %y = phi i64 [ 10, %entry ], [ %x1, %a ]
  %y1 = add i64 %y, 2
  %cb = icmp slt i64 %y1, %n
  br i1 %cb, label %a, label %out
out:
  %r = phi i64 [ %x1, %a ], [ %y1, %b ]
  ret i64 %r
}
"""

SWITCH_IN_LOOP = """
define i64 @f(i64 %n, i64 %d) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %latch ]
  %acc = phi i64 [ 0, %entry ], [ %acc1, %latch ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %pick, label %out
pick:
  %k = urem i64 %i, %d
  switch i64 %k, label %other [ i64 0, label %zero i64 1, label %one ]
zero:
  %a0 = add i64 %acc, 1
  br label %latch
one:
  %a1 = add i64 %acc, 10
  br label %latch
other:
  %a2 = add i64 %acc, 100
  br label %latch
latch:
  %acc1 = phi i64 [ %a0, %zero ], [ %a1, %one ], [ %a2, %other ]
  %i1 = add i64 %i, 1
  br label %loop
out:
  ret i64 %acc
}
"""

#: three exits that each still branch: ``_x1`` selects 0, 1 or 2
THREE_EXIT_LOOP = """
define i64 @f(i64 %n, i64 %d) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %latch ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exhausted
body:
  %r = srem i64 %i, %d
  %z = icmp eq i64 %r, 5
  br i1 %z, label %five, label %next
next:
  %s = icmp eq i64 %i, 7
  br i1 %s, label %seven, label %latch
latch:
  %i1 = add i64 %i, 1
  br label %loop
exhausted:
  %ec = icmp sgt i64 %n, 3
  br i1 %ec, label %big, label %small
five:
  %fc = icmp sgt i64 %i, 4
  br i1 %fc, label %big, label %small
seven:
  %t = mul i64 %i, 100
  %tc = icmp sgt i64 %n, 20
  br i1 %tc, label %big, label %small
big:
  %bv = phi i64 [ %n, %exhausted ], [ %i, %five ], [ %t, %seven ]
  ret i64 %bv
small:
  %sv = phi i64 [ -1, %exhausted ], [ -2, %five ], [ -3, %seven ]
  ret i64 %sv
}
"""

#: case 1 twice (the first wins) and cases 2 and 3 sharing ``%pair``
SWITCH_SHARED_TARGETS = """
define i64 @f(i64 %x, i64 %y) {
entry:
  switch i64 %x, label %other [ i64 1, label %one i64 2, label %pair i64 1, label %dup i64 3, label %pair ]
one:
  %a = add i64 %y, 10
  br label %join
pair:
  %b = mul i64 %y, %x
  br label %join
dup:
  ret i64 -1
other:
  %q = sdiv i64 %y, %x
  br label %join
join:
  %r = phi i64 [ %a, %one ], [ %b, %pair ], [ %q, %other ]
  ret i64 %r
}
"""


def _mcosr_hot() -> str:
    """The ablation's McOSR ``hot``, firing at iteration 5: its restore
    edge enters the loop a second way, so the cycle is irreducible."""
    from repro.core import HotCounterCondition, insert_mcosr_point
    from repro.experiments.ablation import HOT
    from repro.experiments.sites import loop_osr_location
    from repro.ir import print_module

    module = parse_module(HOT.replace("@hot(", "@f("))
    func = module.get_function("f")
    insert_mcosr_point(func, loop_osr_location(func), HotCounterCondition(5))
    return print_module(module)


#: (IR, calls); a zero divisor traps in every shape
SHAPES = {
    "diamond": (DIAMOND, [(1, 2), (5, 2), (-7, -7), (0, 0)]),
    "triangle": (TRIANGLE, [(3, 0), (11, 7), (11, 0)]),
    "nested-break-continue": (NESTED_BREAK_CONTINUE,
                              [(0, 0), (3, 4), (6, 9), (9, 6)]),
    "ret-in-nested-loop": (RET_IN_NESTED_LOOP,
                           [(5, 6), (5, 24), (5, 97), (0, 1)]),
    "self-loop": (SELF_LOOP, [(10, 3), (0, 9), (4, 0)]),
    "two-exit-loop": (TWO_EXIT_LOOP,
                      [(2, 9), (8, 9), (30, 7), (30, 11), (4, 0)]),
    "three-exit-loop": (THREE_EXIT_LOOP,
                        [(2, 9), (6, 2), (30, 9), (3, 9), (30, 2), (10, 2),
                         (30, 0)]),
    "two-entry-cycle": (TWO_ENTRY_CYCLE,
                        [(0, 0), (0, 1), (9, 0), (9, 1), (40, 1)]),
    "switch-in-loop": (SWITCH_IN_LOOP, [(0, 3), (7, 3), (7, 1), (7, 0)]),
    "switch-shared-targets": (SWITCH_SHARED_TARGETS,
                              [(1, 5), (2, 5), (3, 5), (0, 5), (7, 14),
                               (-1, 3)]),
    "mcosr-hot": (_mcosr_hot(), [(0,), (1,), (4,), (5,), (6,), (40,)]),
}


def deep_loop_nest(depth: int) -> str:
    """``depth`` nested counted loops around ``ret i64 7``."""
    lines = ["define i64 @f(i64 %n) {", "entry:", "  br label %h0"]
    for level in range(depth):
        above = f"l{level - 1}" if level else "done"
        prev = "entry" if level == 0 else f"h{level - 1}"
        body = f"h{level + 1}" if level + 1 < depth else f"l{level}"
        lines += [
            f"h{level}:",
            f"  %i{level} = phi i64 [ 0, %{prev} ], "
            f"[ %n{level}, %l{level} ]",
            f"  %c{level} = icmp slt i64 %i{level}, %n",
            f"  br i1 %c{level}, label %{body}, label %{above}",
            f"l{level}:",
            f"  %n{level} = add i64 %i{level}, 1",
            f"  br label %h{level}",
        ]
    lines += ["done:", "  ret i64 7", "}"]
    return "\n".join(lines)


def fallbacks(engine):
    """The ``jit.fallback`` reasons ``engine`` reported, in order."""
    return [event["args"]["reason"] for event in engine.telemetry.events
            if event["name"] == events.JIT_FALLBACK]


class TestStructuredControlFlow:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shape_agrees_with_the_interpreter(self, shape):
        source, calls = SHAPES[shape]
        module = parse_module(source)
        jit = ExecutionEngine(module, tier="jit")
        interp = ExecutionEngine(parse_module(source), tier="interp")
        for args in calls:
            assert outcome(jit, "f", args) == outcome(interp, "f", args), args
        text = compile_function(module.get_function("f"),
                                jit).__ir_source__()
        assert not dispatches(text), text
        assert "jit.fallback" not in jit.stats_snapshot()["counters"]

    def test_break_and_continue_are_statements(self):
        text, _, _ = source_of(NESTED_BREAK_CONTINUE, "f")
        assert text.count("while True:") == 2
        assert "break" in text and "continue" not in text

    def test_ret_in_nested_loop_is_a_return_in_place(self):
        text, _, _ = source_of(RET_IN_NESTED_LOOP, "f")
        inner = [node for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.While)][-1]
        assert any(isinstance(n, ast.Return) for n in ast.walk(inner))

    def test_extra_loop_exits_set_a_selector_read_after_the_loop(self):
        text, _, _ = source_of(THREE_EXIT_LOOP, "f")
        assert text.count("while True:") == 1
        for line in ("_x1 = 0", "_x1 = 1", "_x1 = 2", "if _x1 == 1:",
                     "elif _x1 == 2:"):
            assert line in text, text
        # the first exit is the plain ``break``, read as the ``else``
        assert text.count("break") == 3

    def test_switch_is_an_if_chain_in_case_order(self):
        text, _, _ = source_of(SWITCH_SHARED_TARGETS, "f")
        tests = [ast.unparse(node.test)
                 for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.If)]
        assert tests == ["v1_x == 1", "not v1_x == 2", "v1_x == 1",
                         "not v1_x == 3"], text

    def test_irreducible_cycle_is_split_on_a_private_copy(self):
        from repro.ir import print_module

        module = parse_module(TWO_ENTRY_CYCLE)
        func = module.get_function("f")
        printed = print_module(module)
        shape = func.code_shape()
        text, _, _ = source_of(TWO_ENTRY_CYCLE, "f")
        compiler = FunctionCompiler(func)
        compiler.build_tree()
        assert compiler._alias  # it lowered a copy ...
        # ... where a peeled ``a`` enters the one natural loop at ``b``
        assert text.count("while True:") == 1 and not dispatches(text)
        # ... and nothing of the copy is left in the function or module
        assert print_module(module) == printed
        assert func.code_shape() == shape
        assert [f.name for f in module.functions] == ["f"]
        assert all(use.user.parent.parent is func
                   for arg in func.args for use in arg.uses)

    def test_deep_loop_nest_runs_on_the_tree_walker(self):
        depth = 17  # past the cap that keeps CPython's block limit away
        source = deep_loop_nest(depth)
        engine = ExecutionEngine(parse_module(source), tier="jit",
                                 telemetry=Telemetry())
        assert engine.run("f", 1) == 7
        assert fallbacks(engine) == ["loops nested too deep"]
        thunk = engine.get_compiled(engine.module.get_function("f"))
        assert thunk.__jit_fallback__ == "loops nested too deep"

    def test_every_engine_that_installs_the_tree_walker_counts_it(self):
        module = parse_module(deep_loop_nest(17))
        counts = []
        for _ in range(2):
            engine = ExecutionEngine(module, tier="jit")
            assert engine.run("f", 1) == 7
            counts.append(engine.stats_snapshot()["counters"].get(
                "jit.fallback", 0))
        assert counts == [1, 1]

    @pytest.mark.parametrize("level", ["unoptimized", "optimized"])
    def test_every_shootout_function_is_structured(self, level):
        from repro.shootout import SUITE, compile_benchmark

        for bench in SUITE.values():
            for func in compile_benchmark(bench, level).functions:
                if not func.is_declaration:
                    FunctionCompiler(func).build_tree()


class TestContinuationCensus:
    """The paper's mechanism cuts ``f'_to`` so that it enters ``L'``
    mid-loop-nest: every such continuation must still be structured."""

    def test_every_loop_header_of_every_program_structures(self):
        from repro.analysis.manager import default_manager
        from repro.core import HotCounterCondition, insert_resolved_osr_point
        from repro.shootout import SUITE, compile_benchmark

        lowered = 0
        for bench in SUITE.values():
            for level in ("unoptimized", "optimized"):
                headers = [
                    (func.name, func.blocks.index(loop.header))
                    for func in compile_benchmark(bench, level).functions
                    if not func.is_declaration
                    for loop in default_manager().loop_info(func).loops]
                for name, index in headers:
                    func = compile_benchmark(bench, level).get_function(name)
                    header = func.blocks[index]
                    point = insert_resolved_osr_point(
                        func, header.instructions[header.first_non_phi_index],
                        HotCounterCondition(100))
                    for lowering in (func, point.continuation):
                        tree = FunctionCompiler(lowering).build_tree()
                        assert not any(
                            isinstance(node, ast.Name) and node.id == "_b"
                            for node in ast.walk(tree)), lowering.name
                        lowered += 1
        assert lowered == 148

    def test_the_ledger_fannkuch_site_fires_into_structured_code(self):
        from repro.core import HotCounterCondition, insert_resolved_osr_point
        from repro.experiments.sites import loop_osr_location
        from repro.shootout import SUITE, compile_benchmark

        bench = SUITE["fannkuch"]
        module = compile_benchmark(bench, "unoptimized")
        engine = ExecutionEngine(module, tier="jit", telemetry=Telemetry())
        func = module.get_function("fannkuch")
        point = insert_resolved_osr_point(
            func, loop_osr_location(func, am=engine.analysis),
            HotCounterCondition(100), engine=engine)
        oracle = ExecutionEngine(compile_benchmark(bench, "unoptimized"),
                                 tier="interp")
        assert engine.run(bench.entry, 6) == oracle.run(bench.entry, 6)
        fired = [e for e in engine.telemetry.events
                 if e["name"] == events.OSR_FIRE]
        assert len(fired) == 1
        text = compile_function(point.continuation, engine).__ir_source__()
        assert not dispatches(text)
        assert not fallbacks(engine)


class TestAddressFolding:
    def test_same_block_gep_is_folded_into_its_accesses(self):
        text, compiled, _ = source_of("""
define i64 @f(i64* %p, i64 %i) {
entry:
  %q = getelementptr i64, i64* %p, i64 %i
  %r = getelementptr i64, i64* %q, i64 2
  %v = load i64, i64* %r
  %w = add i64 %v, 1
  store i64 %w, i64* %r
  ret i64 %v
}
""", "f")
        assert "_q" not in text and "_r" not in text  # no pointer locals
        assert text.count("_p[1] + v") == 2, text  # recomputed per access
        buffer = MemoryBuffer(64, "p")
        struct.pack_into("<q", buffer.data, 40, 41)
        assert compiled((buffer, 0), 3) == 41
        assert struct.unpack_from("<q", buffer.data, 40)[0] == 42

    @pytest.mark.parametrize("use", ["backedge", "after-exit"])
    def test_gep_used_in_another_block_is_not_folded(self, use):
        """A fold keeps the arithmetic beside its one block's accesses,
        where no phi move (names are reassigned on edges) can come
        between; a use across the back edge or after the loop keeps the
        ``(buffer, offset)`` local computed when the GEP ran."""
        if use == "backedge":
            phi = "%prev = phi i64* [ %p, %entry ], [ %a, %loop ]"
            read, last = "%prev", "%p"
        else:
            phi, read, last = "", "%a", "%a"
        source = f"""
define i64 @f(i64* %p, i64 %n) {{
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  {phi}
  %a = getelementptr i64, i64* %p, i64 %i
  %old = load i64, i64* {read}
  %new = add i64 %old, 5
  store i64 %new, i64* %a
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, %n
  br i1 %c, label %loop, label %out
out:
  %v = load i64, i64* {last}
  ret i64 %v
}}
"""
        func = parse_module(source).get_function("f")
        assert FunctionCompiler(func)._foldable_geps() == set()
        results = []
        for tier in ("jit", "interp"):
            buffer = MemoryBuffer(64, "p")
            engine = ExecutionEngine(parse_module(source), tier=tier)
            results.append((engine.run("f", (buffer, 0), 6),
                            bytes(buffer.data)))
        assert results[0] == results[1]
        assert results[0][0] == 5
