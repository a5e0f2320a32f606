"""Reference results, and how they are (re)generated.

``expected.json`` is produced by the independent oracles only — the
tree-walking interpreter (``tier="interp"``) over mem2reg-only IR and
``McVM.run_interpreted`` — never by a tier under test.  ``fasta`` and
``fasta-redux`` keep their LCG seed in a global, so an engine that is
run again returns the next checksum of a sequence: for the sizes run on
reused engines the file stores that sequence, indexed by how many runs
the engine has already made.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Optional

PATH = Path(__file__).resolve().parent / "expected.json"

#: consecutive runs recorded for programs with run-to-run state; a
#: reused engine is never run more often than this
SEQUENCE_LENGTH = 40
STATEFUL = ("fasta", "fasta-redux")


def args_key(args) -> str:
    if isinstance(args, (tuple, list)):
        return ",".join(str(a) for a in args)
    return str(args)


def same(value, reference) -> bool:
    """Integers must match exactly and as integers; floats to 1e-9."""
    if isinstance(reference, float):
        return (isinstance(value, float)
                and math.isclose(value, reference, rel_tol=1e-9, abs_tol=0.0))
    return type(value) is type(reference) and value == reference


class Expected:
    def __init__(self, table: Dict[str, dict]):
        self.table = table

    @classmethod
    def load(cls, path: Optional[Path] = None) -> "Expected":
        with open(path or PATH) as fh:
            return cls(json.load(fh))

    def mismatch(self, kind: str, program: str, args, value,
                 index: int = 0) -> Optional[str]:
        """None when ``value`` equals the reference, else what is wrong."""
        where = f"{kind}/{program}({args_key(args)})"
        try:
            reference = self.table[kind][program][args_key(args)]
        except KeyError:
            return f"{where}: no reference"
        if isinstance(reference, list):
            if index >= len(reference):
                return f"{where}: run #{index} is beyond the reference"
            reference = reference[index]
            where += f" run #{index}"
        if same(value, reference):
            return None
        return f"{where}: got {value!r}, reference {reference!r}"


def regenerate(path: Path = PATH) -> Dict[str, dict]:
    """Recompute every reference from the oracles (minutes: the
    tree-walker runs the steady-state sizes, forty times for the two
    stateful programs)."""
    from repro.frontend import compile_c
    from repro.ir import parse_module
    from repro.mcvm import McVM, Q4_BENCHMARKS
    from repro.shootout import SUITE
    from repro.transform import PassManager
    from repro.vm import ExecutionEngine

    from . import compile_cold, feval_mcvm, osr_transition, steady_shootout

    def oracle(name):
        bench = SUITE[name]
        module = compile_c(bench.source, module_name=bench.name)
        PassManager.pipeline("unoptimized").run_module(module)
        return bench, ExecutionEngine(module, tier="interp")

    shootout: Dict[str, dict] = {}
    for sizes, reused in ((compile_cold.ARGS, False),
                          (osr_transition.ARGS, False),
                          (steady_shootout.CENSUS, False),
                          (steady_shootout.ARGS, True)):
        for name, arg in sizes.items():
            bench, engine = oracle(name)
            if reused and name in STATEFUL:
                value = [engine.run(bench.entry, arg)
                         for _ in range(SEQUENCE_LENGTH)]
            else:
                value = engine.run(bench.entry, arg)
                known = bench.expected.get((arg,))
                if known is not None and not same(value, known):
                    raise AssertionError(
                        f"{name}({arg}): oracle {value!r} disagrees with "
                        f"Benchmark.expected {known!r}")
            shootout.setdefault(name, {})[args_key(arg)] = value

    mode_switch = {}
    source = osr_transition.MODE_SWITCH_IR.read_text()
    steps = osr_transition.MODE_SWITCH_N
    for mode in (1, 2):
        engine = ExecutionEngine(parse_module(source), tier="interp")
        mode_switch[args_key((mode, steps))] = engine.run(
            "mode_switch", mode, steps)

    mcvm: Dict[str, dict] = {}
    for sizes in (feval_mcvm.ARGS, feval_mcvm.CENSUS):
        for name, full in sizes.items():
            bench = Q4_BENCHMARKS[name]
            for steps in (feval_mcvm.cold_steps(full), full):
                mcvm.setdefault(name, {})[args_key(steps)] = McVM(
                    bench.source).run_interpreted(bench.entry, steps)

    table = {"shootout": shootout, "mode_switch": {"mode_switch": mode_switch},
             "mcvm": mcvm}
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return table
