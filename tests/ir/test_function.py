"""Unit tests for basic blocks, functions and modules."""

import pytest

from repro.ir import types as T
from repro.ir.builder import IRBuilder
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import BranchInst, PhiInst, RetInst
from repro.ir.values import ConstantInt


def make_func(name="f"):
    return Function(T.function(T.i64, T.i64), name, ["n"])


class TestBasicBlock:
    def test_append_and_iterate(self):
        block = BasicBlock("b")
        inst = block.append(RetInst(ConstantInt(T.i64, 1)))
        assert list(block) == [inst]
        assert len(block) == 1
        assert inst.parent is block

    def test_append_after_terminator_rejected(self):
        block = BasicBlock("b")
        block.append(RetInst(ConstantInt(T.i64, 1)))
        with pytest.raises(ValueError):
            block.append(RetInst(ConstantInt(T.i64, 2)))

    def test_terminator_property(self):
        block = BasicBlock("b")
        assert block.terminator is None
        assert not block.is_terminated
        block.append(RetInst(None))
        assert block.terminator is not None

    def test_insert_before_terminator(self):
        func = make_func()
        block = BasicBlock("b", func)
        b = IRBuilder(block)
        b.ret(b.const_i64(0))
        inst = block.insert_before_terminator(
            PhiInst(T.i64)  # content irrelevant; placement is the test
        )
        assert block.instructions[0] is inst

    def test_phis_grouped_at_top(self):
        func = make_func()
        block = BasicBlock("b", func)
        b = IRBuilder(block)
        x = b.add(b.const_i64(1), b.const_i64(2), "x")
        phi = b.phi(T.i64, "p")
        assert block.instructions[0] is phi
        assert block.first_non_phi_index == 1
        assert block.phis == [phi]

    def test_successors_predecessors(self):
        func = make_func()
        a = BasicBlock("a", func)
        c = BasicBlock("c", func)
        IRBuilder(a).br(c)
        IRBuilder(c).ret(ConstantInt(T.i64, 0))
        assert a.successors() == [c]
        assert c.predecessors() == [a]

    def test_predecessors_deduplicated(self):
        func = make_func()
        a = BasicBlock("a", func)
        c = BasicBlock("c", func)
        b = IRBuilder(a)
        cond = b.const_i1(True)
        b.cond_br(cond, c, c)
        assert c.predecessors() == [a]

    def test_erase_from_parent(self):
        func = make_func()
        a = BasicBlock("a", func)
        IRBuilder(a).ret(ConstantInt(T.i64, 0))
        a.erase_from_parent()
        assert a.parent is None
        assert func.blocks == []


class TestFunction:
    def test_args_from_signature(self):
        func = Function(T.function(T.i32, T.i64, T.ptr(T.i8)), "f",
                        ["x", "p"])
        assert [a.name for a in func.args] == ["x", "p"]
        assert func.args[0].type == T.i64
        assert func.args[1].index == 1

    def test_arg_name_count_checked(self):
        with pytest.raises(ValueError):
            Function(T.function(T.void, T.i64), "f", ["a", "b"])

    def test_declaration(self):
        func = make_func()
        assert func.is_declaration
        BasicBlock("entry", func)
        assert not func.is_declaration

    def test_entry_requires_blocks(self):
        with pytest.raises(ValueError):
            make_func().entry

    def test_insert_block_front(self):
        func = make_func()
        old = BasicBlock("old", func)
        new = BasicBlock("new")
        func.insert_block_front(new)
        assert func.entry is new
        assert func.blocks == [new, old]

    def test_add_block_after(self):
        func = make_func()
        a = BasicBlock("a", func)
        c = BasicBlock("c", func)
        mid = BasicBlock("b")
        func.add_block(mid, after=a)
        assert func.blocks == [a, mid, c]

    def test_get_block(self):
        func = make_func()
        a = BasicBlock("a", func)
        assert func.get_block("a") is a
        with pytest.raises(KeyError):
            func.get_block("nope")

    def test_instruction_count(self):
        func = make_func()
        block = BasicBlock("entry", func)
        b = IRBuilder(block)
        b.add(b.const_i64(1), b.const_i64(2), "x")
        b.ret(b.const_i64(0))
        assert func.instruction_count == 2

    def test_assign_names_fills_unnamed(self):
        func = make_func()
        block = BasicBlock("", func)
        b = IRBuilder(block)
        x = b.add(b.const_i64(1), b.const_i64(2))
        b.ret(x)
        func.assign_names()
        assert block.name
        assert x.name

    def test_assign_names_dedupes(self):
        func = make_func()
        block = BasicBlock("entry", func)
        b = IRBuilder(block)
        x1 = b.add(b.const_i64(1), b.const_i64(2), "x")
        x2 = b.add(b.const_i64(3), b.const_i64(4), "x")
        b.ret(x2)
        func.assign_names()
        assert x1.name != x2.name

    def test_function_value_type_is_fn_pointer(self):
        func = make_func()
        assert func.type == T.ptr(func.function_type)
        assert func.ref == "@f"


class TestModule:
    def test_add_get_function(self):
        m = Module("m")
        func = make_func()
        m.add_function(func)
        assert m.get_function("f") is func
        assert m.has_function("f")
        assert func.module is m

    def test_duplicate_function_rejected(self):
        m = Module("m")
        m.add_function(make_func())
        with pytest.raises(ValueError):
            m.add_function(make_func())

    def test_missing_function_keyerror(self):
        with pytest.raises(KeyError):
            Module("m").get_function("nope")

    def test_declare_function_idempotent(self):
        m = Module("m")
        d1 = m.declare_function("ext", T.function(T.i64, T.i64))
        d2 = m.declare_function("ext", T.function(T.i64, T.i64))
        assert d1 is d2

    def test_declare_function_signature_conflict(self):
        m = Module("m")
        m.declare_function("ext", T.function(T.i64, T.i64))
        with pytest.raises(TypeError):
            m.declare_function("ext", T.function(T.void))

    def test_unique_name(self):
        m = Module("m")
        m.add_function(make_func("f"))
        assert m.unique_name("f") == "f.1"
        assert m.unique_name("g") == "g"

    def test_remove_function(self):
        m = Module("m")
        func = make_func()
        m.add_function(func)
        m.remove_function(func)
        assert not m.has_function("f")

    def test_call_sites_are_uses_of_the_callee(self):
        from repro.ir import parse_module, print_module

        m = parse_module("""
define i64 @g(i64 %x) {
entry:
  ret i64 %x
}

define i64 @h(i64 %x) {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}

define i64 @f(i64 %x) {
entry:
  %a = call i64 @g(i64 %x)
  %b = call i64 @g(i64 %a)
  ret i64 %b
}
""")
        f, g, h = (m.get_function(name) for name in ("f", "g", "h"))
        calls = f.entry.instructions[:2]
        assert [(use.user, use.index) for use in g.uses] == [
            (calls[0], 0), (calls[1], 0)]
        assert calls[1].args == [calls[0]]
        g.replace_all_uses_with(h)
        assert g.uses == [] and [c.callee for c in calls] == [h, h]
        assert "call i64 @h(i64 %a)" in print_module(m)
        # removing the caller drops its call sites from the callee's
        # uses, and leaves the removed body as it was
        m.remove_function(f)
        assert h.uses == []
        assert [c.callee for c in calls] == [h, h]

    def test_globals(self):
        from repro.ir.values import GlobalVariable

        m = Module("m")
        gv = GlobalVariable(T.i64, "g", ConstantInt(T.i64, 1))
        m.add_global(gv)
        assert m.get_global("g") is gv
        assert m.has_global("g")
        with pytest.raises(ValueError):
            m.add_global(GlobalVariable(T.i64, "g", None))
