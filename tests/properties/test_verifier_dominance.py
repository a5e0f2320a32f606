"""The verifier's dominance check against an independent implementation.

The verifier computes its own dominators (it may not use
``repro.analysis``, which assumes verified input).  On random control
flow from ``cfgs()``, every block gets a use of every block's ``%k<d>``,
and the verifier must report exactly the uses that
``repro.analysis.DominatorTree`` says are not dominated, or whose
definition is unreachable — and nothing for a use in unreachable code.
A check scoped to some blocks must report what the whole-function
check reports for those blocks.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import DominatorTree
from repro.ir import parse_module
from repro.ir import types as T
from repro.ir.instructions import BinaryInst
from repro.ir.values import ConstantInt
from repro.ir.verifier import collect_problems

from .strategies import cfgs, render


@st.composite
def scoped_cfgs(draw):
    """A CFG, and the indices of the blocks a scoped check looks at."""
    blocks, ops, operands = draw(cfgs())
    scope = draw(st.sets(st.integers(0, len(blocks) - 1)))
    return (blocks, ops, operands), scope


def expected_problem(tree, probe, defining, using):
    """What the verifier must say about ``probe`` (in ``using``), which
    uses the ``%k`` of ``defining``; ``None`` if nothing."""
    if not tree.is_reachable(using):
        return None  # dominance is only checked in reachable code
    if not tree.is_reachable(defining):
        return (f"%{probe} uses %k{defining.name[1:]} defined in "
                f"unreachable block %{defining.name}")
    if not tree.dominates(defining, using):
        return (f"use of %k{defining.name[1:]} in %{using.name} not "
                f"dominated by its definition in %{defining.name}")
    return None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scoped_cfgs())
def test_verifier_dominance_matches_the_dominator_tree(case):
    cfg, scope = case
    func = parse_module(render(*cfg)).get_function("f")
    assert collect_problems(func) == []

    # every block uses every block's ``%k``, in block order
    tree = DominatorTree(func)
    count = len(cfg[0])
    expected = {}
    for u in range(count):
        using = func.get_block(f"b{u}")
        for d in range(count):
            defining = func.get_block(f"b{d}")
            definition = next(inst for inst in defining.instructions
                              if inst.name == f"k{d}")
            name = f"p{u}x{d}"
            using.insert_before_terminator(
                BinaryInst("add", definition, ConstantInt(T.i64, 0), name))
            problem = expected_problem(tree, name, defining, using)
            if problem is not None:
                expected.setdefault(using, []).append(problem)

    assert collect_problems(func) == [
        problem for block in func.blocks
        for problem in expected.get(block, [])]
    scoped = [func.get_block(f"b{i}") for i in sorted(scope)]
    assert collect_problems(func, scoped) == [
        problem for block in scoped for problem in expected.get(block, [])]
