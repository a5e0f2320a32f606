"""McOSR-style baseline (Lameed & Hendren, VEE'13) for ablation studies.

The technique OSRKit improves upon (paper Section 3, "Comparison with
McOSR"): when the OSR fires,

1. live values are spilled to a pool of module globals,
2. a global flag is raised, and
3. the function *calls itself* with dummy parameters;

a new entrypoint prepended to the function checks the flag: when set, it
clears the flag, reloads the live values from the global pool and jumps
to the landing pad.  McOSR only supports OSR points at loop headers with
exactly two predecessors; this implementation enforces the same
restriction so the ablation compares like with like.

Contrast with OSRKit (``repro.core.instrument``): no continuation
function, state travels through memory rather than registers/arguments,
and the extra entrypoint stays in the function, disturbing later
optimization — the effects Table 2/Figure 10 quantify for the OSRKit
design and ``repro.experiments.ablation`` quantifies for this one.
"""

from __future__ import annotations

from typing import List

from ..analysis.cfg import predecessor_map
from ..ir import types as T
from ..ir.builder import IRBuilder
from ..ir.function import BasicBlock, Function
from ..ir.instructions import Instruction
from ..ir.values import (
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
    UndefValue,
    Value,
)
from ..obs import events as EV
from .conditions import OSRCondition
from .continuation import OSRError, join_landing
from .instrument import (
    close_osr_point,
    emit_osr_check,
    open_osr_point,
    telemetry_for,
)


class McOSRPoint:
    """Result of inserting a McOSR-style OSR point."""

    def __init__(self, function: Function, flag: GlobalVariable,
                 pool: List[GlobalVariable], osr_block: BasicBlock,
                 landing_block: BasicBlock):
        self.function = function
        self.flag = flag
        self.pool = pool
        self.osr_block = osr_block
        self.landing_block = landing_block


def _zero_of(ty: T.Type):
    if isinstance(ty, T.IntType):
        return ConstantInt(ty, 0)
    if isinstance(ty, T.FloatType):
        return ConstantFloat(ty, 0.0)
    if isinstance(ty, T.PointerType):
        return ConstantNull(ty)
    raise OSRError(f"cannot build a zero initializer for {ty}")


def insert_mcosr_point(
    func: Function,
    location: Instruction,
    condition: OSRCondition,
    engine=None,
) -> McOSRPoint:
    """Insert a McOSR-style OSR point before ``location``.

    The "transformation" applied when the OSR fires is the identity (the
    function re-enters itself), which is what the transition-cost
    ablation measures; a real deployment would recompile the function in
    the fired path first.

    Insertion is traced as an ``osr.insert`` span (kind ``mcosr``) on the
    engine's telemetry (ambient when no engine is given).
    """
    with telemetry_for(engine).span(EV.OSR_INSERT, function=func.name,
                                    kind="mcosr"):
        return _insert_mcosr_point(func, location, condition, engine)


def _insert_mcosr_point(
    func: Function,
    location: Instruction,
    condition: OSRCondition,
    engine,
) -> McOSRPoint:
    block = location.parent
    preds = predecessor_map(func)[block]
    if len(preds) != 2:
        raise OSRError(
            "McOSR restriction: OSR points only at blocks with exactly "
            f"two predecessors (%{block.name} has {len(preds)})"
        )

    site = open_osr_point(func, location, "mcosr", engine)
    module = func.module
    live_values = site.live_values
    landing = site.continuation_block

    # -- global pool -----------------------------------------------------------
    flag = GlobalVariable(T.i1, module.unique_name(f"{func.name}.osr.flag"),
                          ConstantInt(T.i1, 0))
    module.add_global(flag)
    pool: List[GlobalVariable] = []
    for index, value in enumerate(live_values):
        gv = GlobalVariable(
            value.type,
            module.unique_name(f"{func.name}.osr.live{index}"),
            _zero_of(value.type),
        )
        module.add_global(gv)
        pool.append(gv)

    # -- new entrypoint: flag check + state restore -------------------------------
    old_entry = func.entry
    new_entry = BasicBlock("osr.dispatch")
    restore = BasicBlock("osr.restore")
    func.insert_block_front(new_entry)
    func.add_block(restore, after=new_entry)
    entry_builder = IRBuilder(new_entry)
    flag_value = entry_builder.load(flag, "osr.flag.val")
    entry_builder.cond_br(flag_value, restore, old_entry)

    restore_builder = IRBuilder(restore)
    restore_builder.store(restore_builder.const_i1(False), flag)
    restored: List[Value] = [
        restore_builder.load(gv, f"restored{index}")
        for index, gv in enumerate(pool)
    ]
    restore_builder.br(landing)

    # -- the check -----------------------------------------------------------------
    # emitted with both ways into the landing pad in place, so a hotness
    # counter starts over from its threshold along osr.restore
    site = emit_osr_check(site, condition)

    # -- firing path: spill, raise flag, self-call -------------------------------
    builder = site.builder
    for value, gv in zip(live_values, pool):
        builder.store(value, gv)
    builder.store(builder.const_i1(True), flag)
    dummy_args: List[Value] = [UndefValue(a.type) for a in func.args]
    call = builder.call(func, dummy_args, "osr.res")

    # -- the landing pad's second way in, from osr.restore ---------------------
    join_landing(func, landing, restore, zip(live_values, restored))

    # the new entry and the repairs reach well beyond the site
    close_osr_point(site, call, whole=True)
    return McOSRPoint(func, flag, pool, site.osr_block, landing)

