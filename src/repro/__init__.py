"""repro — a reproduction of "Flexible On-Stack Replacement in LLVM"
(D'Elia & Demetrescu, CGO 2016).

The package rebuilds the paper's full stack in pure Python:

* :mod:`repro.ir` — a typed SSA IR (the LLVM-IR substitute);
* :mod:`repro.analysis` — dominators, liveness, loops, CFG utilities;
* :mod:`repro.transform` — mem2reg, DCE, const-fold, simplify-CFG,
  inlining, cloning, SSA repair;
* :mod:`repro.vm` — the execution engine (MCJIT substitute) with an
  interpreter tier and a Python-codegen JIT tier;
* :mod:`repro.core` — **OSRKit**: open/resolved OSR instrumentation,
  continuation generation, state mappings with compensation code,
  multi-version management, and a McOSR-style baseline;
* :mod:`repro.frontend` — a mini-C front-end (the clang substitute);
* :mod:`repro.shootout` — the shootout benchmark suite of Table 1;
* :mod:`repro.mcvm` — a mini-McVM with the paper's OSR-based feval
  optimizer (Section 4);
* :mod:`repro.experiments` — drivers regenerating Figures 8, 10/11,
  Tables 2-4 and the design ablations.

Quickstart::

    from repro.ir import parse_module
    from repro.vm import ExecutionEngine
    from repro.core import insert_resolved_osr_point, HotCounterCondition

    module = parse_module(ir_text)
    engine = ExecutionEngine(module)
    func = module.get_function("hot_loop")
    loc = func.get_block("loop.body").instructions[0]
    insert_resolved_osr_point(func, loc, HotCounterCondition(1000),
                              engine=engine)
    engine.run("hot_loop", *args)   # transfers to a clone when hot
"""

__version__ = "0.1.0"

__all__ = [
    "ir",
    "analysis",
    "transform",
    "vm",
    "core",
    "frontend",
    "shootout",
    "mcvm",
    "experiments",
    "__version__",
]
