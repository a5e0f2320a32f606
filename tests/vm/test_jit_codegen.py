"""JIT code-generation tests: inspect the Python code the JIT emits (via
the on-demand ``__ir_source__`` unparse) and the lazy-compilation
trampoline behaviour."""

import ast
import marshal

import pytest

from repro.ir import parse_module
from repro.vm import ExecutionEngine
from repro.vm.jit import FunctionCompiler, compile_function
from repro.vm.runtime import NULL, MemoryBuffer


def source_of(src, name):
    module = parse_module(src)
    engine = ExecutionEngine(module)
    compiled = compile_function(module.get_function(name), engine)
    return compiled.__ir_source__(), compiled, engine


class TestGeneratedSource:
    def test_block_dispatch_structure(self):
        text, _, _ = source_of("""
define i64 @f(i64 %n) {
entry:
  ret i64 %n
}
""", "f")
        assert "while True:" in text
        assert "_b = 0" in text

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
