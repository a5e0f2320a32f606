"""Preservation honesty: a pass's PreservedAnalyses claim is checked by
recomputation.

For every registered pass and every analysis it claims to preserve, the
cached (pre-pass) result must still describe the post-pass function —
recompute from scratch and compare with the registry's ``same_result``
predicate.  A pass that mutates the CFG while returning ``cfg_only()``
(or changes the IR while returning ``all()``) fails here on a generated
counterexample instead of as a stale-cache heisenbug in the OSR
machinery.

The ``all()`` claim is also checked at the IR level, because the pass
manager does not verify after a step that makes it: such a step must
leave the printed function byte-identical and its ``code_version``
unchanged — on generated programs, on every shootout function at every
step of every pipeline, and on the McVM versions the Q4 programs send
through ``optimize_function``.
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import ANALYSES, AnalysisManager, PreservedAnalyses
from repro.frontend import compile_c
from repro.ir import print_function
from repro.ir.function import Module
from repro.mcvm import McVM, q4_order
from repro.shootout import SUITE
from repro.transform import PIPELINES, PassManager
from repro.transform.passmanager import PASSES

from .strategies import build_program, program_specs


@contextmanager
def unchanged_when_all_claimed():
    """Wrap every registered pass so that a step returning ``all()``
    is checked against the function's print and version from before it;
    yields the number of such steps seen (``["all"]``) and of steps run
    (``["steps"]``)."""
    seen = {"all": 0, "steps": 0}

    def checked(pass_name, pass_fn):
        def step(func, am):
            before, version = print_function(func), func.code_version
            preserved = pass_fn(func, am)
            seen["steps"] += 1
            if (isinstance(preserved, PreservedAnalyses)
                    and preserved.preserves_all):
                seen["all"] += 1
                assert print_function(func) == before, (
                    f"{pass_name} returned all() but changed @{func.name}"
                )
                assert func.code_version == version, (
                    f"{pass_name} returned all() but bumped "
                    f"@{func.name}'s code_version"
                )
            return preserved
        return step

    originals = dict(PASSES)
    PASSES.update({name: checked(name, pass_fn)
                   for name, pass_fn in originals.items()})
    try:
        yield seen
    finally:
        PASSES.update(originals)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program_specs())
def test_preservation_claims_are_honest(spec):
    for pass_name, pass_fn in PASSES.items():
        # a fresh function per pass: passes mutate in place
        module = Module(f"prop.{pass_name}")
        func = build_program(spec, module)
        am = AnalysisManager()
        cached_before = {
            name: am.get(name, func) for name in ANALYSES
        }

        preserved = pass_fn(func, am)
        if not preserved.preserves_all:
            am.invalidate(func, preserved)

        for name, analysis in ANALYSES.items():
            if not preserved.preserves(name):
                continue
            cached = am.cached(name, func)
            # a preserved entry must survive invalidation as the same
            # object the pre-pass query produced...
            assert cached is cached_before[name], (
                f"{pass_name} claims to preserve {name} but the cached "
                f"entry was dropped"
            )
            # ...and must still agree with a from-scratch recomputation
            # on the post-pass body
            fresh = analysis.compute(func)
            assert analysis.same_result(cached, fresh), (
                f"{pass_name} claims to preserve {name} but the cached "
                f"result diverges from recomputation on @{func.name}"
            )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program_specs())
def test_all_leaves_generated_programs_unchanged(spec):
    with unchanged_when_all_claimed() as seen:
        for pipeline in PIPELINES:
            module = Module(f"prop.{pipeline}")
            PassManager.pipeline(pipeline).run(build_program(spec, module))
    assert seen["steps"] == sum(map(len, PIPELINES.values()))


@pytest.mark.parametrize("name", sorted(SUITE))
def test_all_leaves_shootout_functions_unchanged(name):
    bench = SUITE[name]
    with unchanged_when_all_claimed() as seen:
        for pipeline in PIPELINES:
            module = compile_c(bench.source, module_name=bench.name)
            PassManager.pipeline(pipeline).run_module(module)
    # most steps of the real traffic change nothing: the check has teeth
    assert seen["all"] > 0


@pytest.mark.parametrize("osr", [False, True])
def test_all_leaves_mcvm_versions_unchanged(osr):
    with unchanged_when_all_claimed() as seen:
        for benchmark in q4_order():
            for source in (benchmark.source, benchmark.direct_source):
                McVM(source, enable_osr=osr).run(benchmark.entry, 3)
    assert seen["all"] > 0
