"""One transfer, three ways, on real programs.

At the ``osr_transition`` site of each shootout program at
``optimized``, the same OSR is built three ways — default resolved
insertion (the identity dict), an explicit variant whose mapping is
derived through a clone's value map, and an open point whose generator
maps the pristine twin's landing state by name.  Each must fire, return
the interpreter's value, and report through ``osr.compensation`` that
every landing value arrived as a transfer (``computed == 0``).

The reverse direction runs at every loop header of every function: an
optimized clone (``constfold`` + ``simplifycfg`` + ``dce``) takes the
original's place at its call sites and OSRs back into the original,
with the mapping derived through the inverted clone map.
"""

from functools import lru_cache

import pytest

from repro.core import (
    HotCounterCondition,
    derive_state_mapping,
    generate_continuation,
    insert_open_osr_point,
    insert_resolved_osr_point,
    required_landing_state,
)
from repro.experiments import loop_osr_location
from repro.ir import CallInst
from repro.obs import events as EV
from repro.obs.telemetry import Telemetry
from repro.shootout import SUITE, compile_benchmark
from repro.transform import (
    clone_function,
    eliminate_dead_code,
    fold_constants,
    simplify_cfg,
)
from repro.vm import ExecutionEngine

LEVEL = "optimized"

#: program -> (function holding the site, callee the site's loop must call
#: or None for the hottest loop, counter threshold, argument): the sites
#: and inputs of the ledger's ``osr_transition`` workload
SITES = {
    "b-trees": ("btrees", None, 16, 5),
    "fannkuch": ("fannkuch", None, 100, 6),
    "fasta": ("fasta", None, 100, 3000),
    "fasta-redux": ("fasta_redux", None, 100, 3000),
    "mbrot": ("mbrot", None, 100, 12),
    "n-body": ("nbody", "nbody_advance", 100, 200),
    "rev-comp": ("revcomp", None, 100, 3000),
    "sp-norm": ("spnorm_av", None, 100, 10),
}


@lru_cache(maxsize=None)
def _oracle(name):
    benchmark = SUITE[name]
    engine = ExecutionEngine(compile_benchmark(benchmark, LEVEL),
                             tier="interp")
    return engine.run(benchmark.entry, SITES[name][3])


def _site(func, callee, am):
    if callee is None:
        return loop_osr_location(func, am=am)
    header = max(
        (loop for loop in am.loop_info(func).loops
         if any(getattr(getattr(inst, "callee", None), "name", None)
                == callee for block in loop.blocks
                for inst in block.instructions)),
        key=lambda loop: loop.depth).header
    return header.instructions[header.first_non_phi_index]


def _resolved(func, location, condition, engine, tel):
    return len(insert_resolved_osr_point(
        func, location, condition, engine=engine).live_values)


def _derived(func, location, condition, engine, tel):
    live = engine.analysis.liveness(func).live_before(location)
    variant, vmap = clone_function(func, f"{func.name}.v")
    landing = vmap[location.parent]
    mapping = derive_state_mapping(live, vmap, variant, landing,
                                   engine.analysis)
    insert_resolved_osr_point(func, location, condition, variant=variant,
                              landing=landing, mapping=mapping,
                              engine=engine)
    return len(required_landing_state(variant, landing, engine.analysis))


def _open(func, location, condition, engine, tel):
    env = {}

    def generator(twin, block, _env, _val):
        by_name = {v.name: i for i, v in enumerate(env["live"])}
        mapping = {v: by_name[v.name]
                   for v in required_landing_state(twin, block)}
        env["size"] = len(mapping)
        return generate_continuation(twin, block, env["live"], mapping,
                                     telemetry=tel)

    env["live"] = insert_open_osr_point(func, location, condition,
                                        generator, engine).live_values
    return env


WAYS = {"resolved": _resolved, "derived": _derived, "open": _open}


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("name", SITES)
def test_three_ways_agree(name, way):
    benchmark = SUITE[name]
    function, callee, threshold, arg = SITES[name]
    tel = Telemetry()
    engine = ExecutionEngine(compile_benchmark(benchmark, LEVEL),
                             tier="jit", telemetry=tel)
    func = engine.module.get_function(function)
    size = WAYS[way](func, _site(func, callee, engine.analysis),
                     HotCounterCondition(threshold), engine, tel)
    assert engine.run(benchmark.entry, arg) == _oracle(name)
    assert any(e["name"] == EV.OSR_FIRE for e in tel.events)
    if way == "open":
        size = size["size"]
    compensation = [e["args"] for e in tel.events
                    if e["name"] == EV.OSR_COMPENSATION]
    assert compensation and all(
        args["entries"] == size and args["computed"] == 0
        for args in compensation)


def _headers():
    """(program, function, header index) for every loop header."""
    sites = []
    for name in SITES:
        module = compile_benchmark(SUITE[name], LEVEL)
        am = ExecutionEngine(module, tier="jit").analysis
        for func in module.functions:
            if not func.is_declaration:
                loops = am.loop_info(func).loops
                sites += [(name, func.name, i) for i in range(len(loops))]
    return sites


@pytest.mark.parametrize("name,function,index", _headers())
def test_optimized_clone_osrs_back_at_every_loop_header(name, function,
                                                         index):
    benchmark = SUITE[name]
    tel = Telemetry()
    engine = ExecutionEngine(compile_benchmark(benchmark, LEVEL),
                             tier="jit", telemetry=tel)
    func = engine.module.get_function(function)
    header = engine.analysis.loop_info(func).loops[index].header
    clone, vmap = clone_function(func, f"{func.name}.opt", engine.module)
    fold_constants(clone)
    simplify_cfg(clone)
    eliminate_dead_code(clone)
    landing = vmap[header]
    assert landing.parent is clone, "the header did not survive cleanup"
    location = landing.instructions[landing.first_non_phi_index]
    live = engine.analysis.liveness(clone).live_before(location)
    inverse = {copy: original for original, copy in vmap.items()}
    mapping = derive_state_mapping(live, inverse, func, header,
                                   engine.analysis)
    insert_resolved_osr_point(clone, location, HotCounterCondition(1),
                              variant=func, landing=header,
                              mapping=mapping, engine=engine)
    # the callee is an operand: RAUW retargets every direct call
    assert any(isinstance(use.user, CallInst) for use in func.uses) or (
        func.name == benchmark.entry)
    func.replace_all_uses_with(clone)
    assert func.uses == []
    if func.name == benchmark.entry:
        result = engine.call(clone, [SITES[name][3]])
    else:
        result = engine.run(benchmark.entry, SITES[name][3])
    assert result == _oracle(name)
    assert any(e["name"] == EV.OSR_FIRE for e in tel.events)
