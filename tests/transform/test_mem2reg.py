"""mem2reg (SSA construction) tests."""

import pytest

from repro.ir import parse_function, parse_module, verify_function
from repro.ir import types as T
from repro.ir.instructions import AllocaInst, LoadInst, PhiInst, StoreInst
from repro.transform.dce import eliminate_dead_code
from repro.transform.mem2reg import is_promotable, promote_memory_to_registers
from repro.vm import ExecutionEngine


def allocas_of(func):
    return [i for i in func.instructions() if isinstance(i, AllocaInst)]


STRAIGHT = """
define i64 @f(i64 %n) {
entry:
  %x = alloca i64
  store i64 %n, i64* %x
  %v = load i64, i64* %x
  %v2 = add i64 %v, 1
  store i64 %v2, i64* %x
  %v3 = load i64, i64* %x
  ret i64 %v3
}
"""

DIAMOND = """
define i64 @f(i64 %n) {
entry:
  %x = alloca i64
  store i64 0, i64* %x
  %c = icmp sgt i64 %n, 5
  br i1 %c, label %big, label %small
big:
  store i64 100, i64* %x
  br label %join
small:
  store i64 7, i64* %x
  br label %join
join:
  %v = load i64, i64* %x
  ret i64 %v
}
"""

LOOP = """
define i64 @f(i64 %n) {
entry:
  %acc = alloca i64
  %i = alloca i64
  store i64 0, i64* %acc
  store i64 0, i64* %i
  br label %head
head:
  %iv = load i64, i64* %i
  %c = icmp slt i64 %iv, %n
  br i1 %c, label %body, label %out
body:
  %a = load i64, i64* %acc
  %a2 = add i64 %a, %iv
  store i64 %a2, i64* %acc
  %i2 = add i64 %iv, 1
  store i64 %i2, i64* %i
  br label %head
out:
  %r = load i64, i64* %acc
  ret i64 %r
}
"""


class TestPromotion:
    def test_straight_line(self):
        func = parse_function(STRAIGHT)
        promoted = promote_memory_to_registers(func)
        assert promoted == 1
        verify_function(func)
        assert allocas_of(func) == []
        assert not any(isinstance(i, (LoadInst, StoreInst))
                       for i in func.instructions())

    def test_straight_line_semantics(self):
        module = parse_module(STRAIGHT)
        func = module.get_function("f")
        engine = ExecutionEngine(module)
        before = engine.run("f", 10)
        promote_memory_to_registers(func)
        engine.invalidate(func)
        assert engine.run("f", 10) == before == 11

    def test_diamond_inserts_phi(self):
        func = parse_function(DIAMOND)
        promote_memory_to_registers(func)
        verify_function(func)
        join = func.get_block("join")
        assert len(join.phis) == 1
        phi = join.phis[0]
        values = sorted(v.value for v, _ in phi.incoming)
        assert values == [7, 100]

    def test_diamond_semantics(self):
        module = parse_module(DIAMOND)
        engine = ExecutionEngine(module)
        assert engine.run("f", 10) == 100
        promote_memory_to_registers(module.get_function("f"))
        engine.invalidate(module.get_function("f"))
        assert engine.run("f", 10) == 100
        assert engine.run("f", 1) == 7

    def test_loop_carried_phis(self):
        func = parse_function(LOOP)
        promote_memory_to_registers(func)
        verify_function(func)
        head = func.get_block("head")
        assert len(head.phis) == 2
        assert allocas_of(func) == []

    def test_loop_semantics(self):
        module = parse_module(LOOP)
        engine = ExecutionEngine(module)
        promote_memory_to_registers(module.get_function("f"))
        engine.invalidate(module.get_function("f"))
        assert engine.run("f", 10) == sum(range(10))

    def test_load_before_store_yields_undef_not_crash(self):
        func = parse_function("""
define i64 @f() {
entry:
  %x = alloca i64
  %v = load i64, i64* %x
  store i64 1, i64* %x
  ret i64 %v
}
""")
        promote_memory_to_registers(func)
        verify_function(func)

    def test_only_filter(self):
        func = parse_function(LOOP)
        target = allocas_of(func)[0]
        promoted = promote_memory_to_registers(func, only={target})
        assert promoted == 1
        assert len(allocas_of(func)) == 1


#: %t is written and read inside one conditional block of the loop body
#: (minimal SSA joins it at the latch and the header, a dead phi cycle);
#: %acc and %i are loop-carried
BODY_TEMP = """
define i64 @f(i64 %n) {
entry:
  %acc = alloca i64
  %i = alloca i64
  %t = alloca i64
  store i64 0, i64* %acc
  store i64 0, i64* %i
  br label %head
head:
  %iv = load i64, i64* %i
  %c = icmp slt i64 %iv, %n
  br i1 %c, label %body, label %out
body:
  %odd = and i64 %iv, 1
  %isodd = icmp ne i64 %odd, 0
  br i1 %isodd, label %bump, label %latch
bump:
  %sq = mul i64 %iv, %iv
  store i64 %sq, i64* %t
  %tv = load i64, i64* %t
  %a = load i64, i64* %acc
  %a2 = add i64 %a, %tv
  store i64 %a2, i64* %acc
  br label %latch
latch:
  %i2 = add i64 %iv, 1
  store i64 %i2, i64* %i
  br label %head
out:
  %r = load i64, i64* %acc
  ret i64 %r
}
"""


def minimal_phi_count(func):
    """Phis Cytron-style minimal SSA would place for the promotable
    entry allocas: one per block of each store set's iterated dominance
    frontier, live or not."""
    from repro.analysis.manager import default_manager

    frontier = default_manager().dominator_tree(func).dominance_frontier()
    count = 0
    for alloca in func.entry.instructions:
        if not (isinstance(alloca, AllocaInst) and is_promotable(alloca)):
            continue
        worklist = [u.user.parent for u in alloca.uses
                    if isinstance(u.user, StoreInst)]
        joins = set()
        while worklist:
            for join in frontier.get(worklist.pop(), ()):
                if join not in joins:
                    joins.add(join)
                    worklist.append(join)
        count += len(joins)
    return count


class TestPrunedSSA:
    def test_body_temporary_gets_no_header_phi(self):
        func = parse_function(BODY_TEMP)
        assert minimal_phi_count(func) == 5  # acc, t: latch + head; i: head
        promote_memory_to_registers(func)
        verify_function(func)
        head = func.get_block("head")
        assert sorted(p.name for p in head.phis) == ["acc.phi", "i.phi"]
        # %t is dead at the latch join and at the header: no phi for it
        phis = [i for i in func.instructions() if isinstance(i, PhiInst)]
        assert not any(p.name.startswith("t.") for p in phis)
        assert len(phis) == 3

    def test_body_temporary_semantics(self):
        module = parse_module(BODY_TEMP)
        promote_memory_to_registers(module.get_function("f"))
        engine = ExecutionEngine(module)
        assert engine.run("f", 10) == sum(i * i for i in range(10) if i & 1)

    def test_value_live_around_the_loop_keeps_its_phi(self):
        """Read after the loop, written only inside: live-in at the
        header along the exit path, so the header phi stays."""
        func = parse_function(LOOP)
        promote_memory_to_registers(func)
        out = func.get_block("out")
        ret = out.terminator
        assert isinstance(ret.value, PhiInst)
        assert ret.value.parent is func.get_block("head")

    @pytest.mark.parametrize("name", ["b-trees", "fannkuch", "fasta",
                                      "fasta-redux", "mbrot", "n-body",
                                      "rev-comp", "sp-norm"])
    def test_never_more_phis_than_minimal_ssa(self, name):
        from repro.frontend import compile_c
        from repro.shootout import SUITE

        module = compile_c(SUITE[name].source)
        for func in module.functions:
            if func.is_declaration:
                continue
            before = sum(isinstance(i, PhiInst) for i in func.instructions())
            bound = minimal_phi_count(func)
            promote_memory_to_registers(func)
            verify_function(func)
            after = sum(isinstance(i, PhiInst) for i in func.instructions())
            assert after - before <= bound, func.name
            # pruned: no phi that dead-code elimination could drop
            eliminate_dead_code(func)
            assert after == sum(isinstance(i, PhiInst)
                                for i in func.instructions()), func.name


class TestPromotability:
    def test_escaped_alloca_not_promotable(self):
        func = parse_function("""
declare void @sink(i64* %p)

define i64 @f() {
entry:
  %x = alloca i64
  store i64 1, i64* %x
  call void @sink(i64* %x)
  %v = load i64, i64* %x
  ret i64 %v
}
""")
        alloca = allocas_of(func)[0]
        assert not is_promotable(alloca)
        assert promote_memory_to_registers(func) == 0

    def test_gep_addressed_alloca_not_promotable(self):
        func = parse_function("""
define i64 @f() {
entry:
  %x = alloca [4 x i64]
  %p = getelementptr [4 x i64], [4 x i64]* %x, i64 0, i64 1
  store i64 1, i64* %p
  %v = load i64, i64* %p
  ret i64 %v
}
""")
        assert promote_memory_to_registers(func) == 0

    def test_multi_count_alloca_not_promotable(self):
        func = parse_function("""
define i64 @f() {
entry:
  %x = alloca i64, i64 4
  store i64 1, i64* %x
  %v = load i64, i64* %x
  ret i64 %v
}
""")
        assert promote_memory_to_registers(func) == 0

    def test_stored_pointer_not_promotable(self):
        func = parse_function("""
define i64 @f() {
entry:
  %cell = alloca i64*
  %x = alloca i64
  store i64* %x, i64** %cell
  store i64 3, i64* %x
  %v = load i64, i64* %x
  ret i64 %v
}
""")
        allocas = allocas_of(func)
        x = next(a for a in allocas if a.name == "x")
        assert not is_promotable(x)
        # the cell itself holds only loads/stores of whole values: promotable
        cell = next(a for a in allocas if a.name == "cell")
        assert is_promotable(cell)
