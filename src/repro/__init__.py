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
  and a McOSR-style baseline;
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

A package imports eagerly only what a ``jit`` run from mini-C source to
result uses; the rest of its ``__all__`` (the IR parser and printer,
the interpreter, decoded and background tiers, the trace readers, the
serving loop) loads on first access through :func:`lazy_exports`.
"""

import importlib
import sys
from typing import Callable, Dict, Sequence

__version__ = "0.1.0"


def lazy_exports(package: str,
                 submodules: Dict[str, Sequence[str]]) -> Callable:
    """The PEP 562 module ``__getattr__`` of ``package``: ``submodules``
    maps each lazily loaded submodule to the names the package
    re-exports from it.  The first access to such a name imports the
    submodule and binds the name in the package's globals, so every
    later lookup is an ordinary attribute hit."""
    owner = {name: submodule for submodule, names in submodules.items()
             for name in names}

    def __getattr__(name: str):
        submodule = owner.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"),
                        name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


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
