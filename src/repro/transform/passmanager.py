"""Pass manager.

A deliberately simple pipeline runner in the spirit of ``opt`` under the
new pass manager: a pass is a callable ``(func, am) ->
PreservedAnalyses`` — it pulls analyses from the
:class:`~repro.analysis.AnalysisManager` and reports which cached
results it left valid.  The manager then invalidates selectively,
folding the ``code_version`` bump into the invalidation path: a pass
that changed nothing returns ``PreservedAnalyses.all()`` and the
function keeps its version (and its compiled artifacts).

The manager verifies each IR state a pipeline produces once: after every
step that reports a change, or once at the end when no step changed the
function.  That rests on the ``all()`` contract — a step that returns it
leaves the IR byte-identical (``tests/properties/test_preservation.py``
checks the claim on every step of every pipeline), so verifying after it
would only repeat the verdict on the state before it.

Standard pipelines bundle the passes the way the paper's experiments do
(``mem2reg`` only for the *unoptimized* tier, ``-O1``-like for the
*optimized* tier).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Union

from ..analysis.manager import (
    AnalysisManager,
    PreservedAnalyses,
    resolve_manager,
)
from ..ir.function import Function, Module
from ..ir.verifier import VerificationError, verify_function
from .constfold import fold_constants
from .dce import (
    eliminate_dead_blocks,
    eliminate_dead_code,
    eliminate_dead_stores,
)
from .mem2reg import promote_memory_to_registers
from .scalarize import scalarize_aggregates
from .simplifycfg import simplify_cfg

#: the managed pass contract
FunctionPass = Callable[[Function, AnalysisManager], PreservedAnalyses]


# -- the standard passes, with honest preservation claims -----------------------
#
# "cfg_only" = instructions were rewritten but no block was added,
# removed or re-targeted: the dominator tree and loop forest survive,
# liveness does not (no pass preserves liveness — adding or removing any
# use changes the live sets).


def mem2reg_pass(func: Function, am: AnalysisManager) -> PreservedAnalyses:
    if promote_memory_to_registers(func, am=am):
        return PreservedAnalyses.cfg_only()
    return PreservedAnalyses.all()


def constfold_pass(func: Function, am: AnalysisManager) -> PreservedAnalyses:
    if fold_constants(func):
        return PreservedAnalyses.cfg_only()
    return PreservedAnalyses.all()


def scalarize_pass(func: Function, am: AnalysisManager) -> PreservedAnalyses:
    """SROA: split non-escaping aggregate allocas along their constant
    GEP access paths and promote the pieces (instruction rewrites and
    new phis only — the CFG is untouched)."""
    if scalarize_aggregates(func, am=am):
        return PreservedAnalyses.cfg_only()
    return PreservedAnalyses.all()


def dce_pass(func: Function, am: AnalysisManager) -> PreservedAnalyses:
    """Worklist DCE plus escape-driven dead-store elimination: a store
    into a non-escaping alloca that is never loaded observes nothing."""
    removed = eliminate_dead_stores(func, am=am)
    removed += eliminate_dead_code(func)
    if removed:
        return PreservedAnalyses.cfg_only()
    return PreservedAnalyses.all()


def dce_blocks_pass(func: Function, am: AnalysisManager) -> PreservedAnalyses:
    """Blocks first (may kill uses), then instructions."""
    removed_blocks = eliminate_dead_blocks(func)
    removed_insts = eliminate_dead_code(func)
    if removed_blocks:
        return PreservedAnalyses.none()
    if removed_insts:
        return PreservedAnalyses.cfg_only()
    return PreservedAnalyses.all()


def simplifycfg_pass(func: Function, am: AnalysisManager
                     ) -> PreservedAnalyses:
    # simplify_cfg returns its fixed-point iteration count; one
    # iteration means the first sweep found nothing to do
    if simplify_cfg(func) > 1:
        return PreservedAnalyses.none()
    return PreservedAnalyses.all()


#: registry of named function passes (all managed)
PASSES: Dict[str, FunctionPass] = {
    "mem2reg": mem2reg_pass,
    "scalarize": scalarize_pass,
    "dce": dce_pass,
    "dce+blocks": dce_blocks_pass,
    "constfold": constfold_pass,
    "simplifycfg": simplifycfg_pass,
}

#: the two pipeline configurations of the paper's evaluation (Section
#: 5.1), plus "scalarized" — the unoptimized tier with SROA on top, the
#: A/B arm the differential suites compare against plain "unoptimized"
PIPELINES: Dict[str, List[str]] = {
    # "unoptimized": only mem2reg, to promote stack slots and build SSA
    "unoptimized": ["mem2reg"],
    # "scalarized": mem2reg + escape-driven SROA, nothing else
    "scalarized": ["mem2reg", "scalarize"],
    # "optimized": an -O1-like sequence (aggregates split before the
    # cleanup passes so the pieces fold like any other scalar)
    "optimized": [
        "mem2reg",
        "scalarize",
        "constfold",
        "simplifycfg",
        "dce",
        "constfold",
        "simplifycfg",
        "dce+blocks",
    ],
}


class PassManager:
    """Runs a sequence of function passes and verifies every IR state
    they produce.

    Passes are registry names or ``(func, am)`` callables.  After each
    pass the analysis manager invalidates whatever the pass did not
    preserve; a pass returning ``PreservedAnalyses.all()`` changed
    nothing, so it costs neither a version bump nor a verification.  A
    step that reports a change (anything but ``all()``, or no
    ``PreservedAnalyses`` at all) is verified straight after it, and a
    function no step changed is verified once at the end: every function
    :meth:`run` returns has been verified as it is returned.
    """

    def __init__(self, passes: Sequence[Union[str, Callable]]):
        unknown = [p for p in passes
                   if isinstance(p, str) and p not in PASSES]
        if unknown:
            raise KeyError(f"unknown passes: {unknown}")
        self.pass_names = [
            p if isinstance(p, str) else getattr(p, "__name__", "pass")
            for p in passes
        ]
        self._passes: List[FunctionPass] = [
            PASSES[p] if isinstance(p, str) else p
            for p in passes
        ]

    @classmethod
    def pipeline(cls, name: str) -> "PassManager":
        return cls(PIPELINES[name])

    def run(self, func: Function, am: AnalysisManager = None) -> Function:
        am = resolve_manager(am)
        steps = len(self._passes)
        changed = False
        for step, (name, pass_fn) in enumerate(
                zip(self.pass_names, self._passes), 1):
            preserved = pass_fn(func, am)
            if not isinstance(preserved, PreservedAnalyses):
                # a pass that forgot its return value gives no
                # guarantees: treat it as preserving nothing
                preserved = PreservedAnalyses.none()
            if preserved.preserves_all:
                continue
            changed = True
            # a new IR state: verify it, then bump the version (stale
            # decoded/JIT artifacts keyed on the old one must not be
            # reused) and drop the analyses the pass clobbered
            self._verify(func,
                         f"after pass {name!r} (step {step} of {steps})")
            am.invalidate(func, preserved)
        if not changed:
            self._verify(func, "on input (no pass changed it)")
        return func

    @staticmethod
    def _verify(func: Function, where: str) -> None:
        try:
            verify_function(func)
        except VerificationError as exc:
            raise VerificationError(func, exc.problems, where) from None

    def run_module(self, module: Module, am: AnalysisManager = None
                   ) -> Module:
        am = resolve_manager(am)
        for func in module.functions:
            if not func.is_declaration:
                self.run(func, am)
        return module


def optimize_function(func: Function, level: str = "optimized",
                      am: AnalysisManager = None) -> Function:
    """Convenience: run one of the standard pipelines on a function."""
    return PassManager.pipeline(level).run(func, am)
