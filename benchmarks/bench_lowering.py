"""Figure 8 analogue — intrusiveness and cost of the lowering pipeline.

The paper shows that the x86-64 code for ``isord_from`` differs from the
uninstrumented version by just two instructions, with the OSR firing
sequence out of the hot path.  Our back-end lowers IR to Python bytecode
(AST-direct ``compile()``); this module measures the same family of
properties at that level:

* **intrusiveness** — how many extra bytecode operations the
  never-firing OSR path adds to the compiled artifact.  The metric walks
  the artifact's code objects rather than scanning generated source
  text: since codegen went AST-direct there *is* no source text unless
  someone asks for it, and op counts are insensitive to formatting.
* **codegen latency** — cold AST-direct ``compile(tree)`` against the
  legacy text pipeline (``ast.unparse`` + ``compile(text)``).  The
  acceptance bar for the AST-direct rewrite is a >= 30% cut.
* **superinstruction fusion** — decoded-tier run time plus the
  decoder's fusion counters (``cmp_br``/``op_chain``/``phi_copy``).

Runs standalone through ``python -m benchmarks lowering`` and as
pytest-benchmark cases via ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import ast
import dis
import time
from typing import List, NamedTuple, Optional, Tuple

import pytest

from repro.core import HotCounterCondition, insert_resolved_osr_point
from repro.ir import parse_module
from repro.shootout import SUITE, compile_benchmark
from repro.vm import ExecutionEngine
from repro.vm.jit import FunctionCompiler, compile_function

from .bench_tiers import ISORD

SUM_LOOP = """
define i64 @hot(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %loop ]
  %acc2 = add i64 %acc, %i
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, %n
  br i1 %c, label %loop, label %done
done:
  ret i64 %acc2
}
"""

#: (label, suite benchmark, decoded-tier workload args) for the fusion
#: group — compare/branch-heavy programs where superinstructions
#: collapse the dispatch-per-instruction overhead
FUSION_WORKLOADS: List[Tuple[str, str, Tuple[int, ...]]] = [
    ("fannkuch-6", "fannkuch", (6,)),
    ("fasta-300", "fasta", (300,)),
    ("rev-comp-120", "rev-comp", (120,)),
]


class CodegenRow(NamedTuple):
    workload: str
    ast_compile_s: float     #: AST build + direct ``compile(tree)``
    text_compile_s: float    #: AST build + ``ast.unparse`` + ``compile(text)``
    codegen_speedup: float   #: text_compile_s / ast_compile_s
    lowered_ops: int         #: bytecode ops in the compiled artifact


class FusionRow(NamedTuple):
    workload: str
    decoded_s: float         #: decoded tier, best warm run
    cmp_br: int              #: compare+branch pairs fused
    op_chain: int            #: producer→consumer chains inlined
    phi_copy: int            #: phi moves folded into edge jumps


class IntrusivenessRow(NamedTuple):
    workload: str
    native_ops: int          #: artifact op count, uninstrumented
    osr_ops: int             #: artifact op count with a never-firing point
    delta_ops: int           #: counter update + check + firing block


def _code_ops(code) -> int:
    """Bytecode instruction count of ``code`` and every nested code object."""
    total = sum(1 for _ in dis.get_instructions(code))
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            total += _code_ops(const)
    return total


def lowered_op_count(func, engine) -> int:
    """Size of ``func``'s compiled artifact, in bytecode operations.

    This is the compiled-artifact walk that replaced the old
    source-line scan: the artifact no longer carries source text, and a
    line count conflated formatting with substance anyway.
    """
    return _code_ops(compile_function(func, engine).__code__)


# -- codegen latency: AST-direct vs the text round-trip -----------------------

def _time_codegen(func, trials):
    """Best-of-``trials`` cold lowering time for both pipelines.

    Both sides rebuild the AST from scratch each rep; the delta is
    therefore exactly what the AST-direct rewrite removed — the
    ``ast.unparse`` pretty-print and the re-parse inside ``compile(str)``.
    """
    ast_best: Optional[float] = None
    text_best: Optional[float] = None
    ops = 0
    FunctionCompiler(func).compile()  # untimed warm-up (name assignment &c.)
    for _ in range(trials):
        start = time.perf_counter()
        artifact = FunctionCompiler(func).compile()
        elapsed = time.perf_counter() - start
        if ast_best is None or elapsed < ast_best:
            ast_best = elapsed
        ops = _code_ops(artifact.code)

        start = time.perf_counter()
        tree = FunctionCompiler(func).build_tree()
        text = ast.unparse(tree)
        compile(text, f"<jit:@{func.name}>", "exec")
        elapsed = time.perf_counter() - start
        if text_best is None or elapsed < text_best:
            text_best = elapsed
    return ast_best, text_best, ops


def run_codegen(trials: int = 3, smoke: bool = False) -> List[CodegenRow]:
    """Cold codegen latency, AST-direct vs text, per representative function."""
    cases = [
        ("isord", lambda: parse_module(ISORD), "isord"),
        ("fannkuch",
         lambda: compile_benchmark(SUITE["fannkuch"], "unoptimized"),
         SUITE["fannkuch"].entry),
        ("rev-comp",
         lambda: compile_benchmark(SUITE["rev-comp"], "unoptimized"),
         SUITE["rev-comp"].entry),
    ]
    if smoke:
        trials = 1
        cases = cases[:2]
    rows: List[CodegenRow] = []
    for label, factory, entry in cases:
        func = factory().get_function(entry)
        ast_s, text_s, ops = _time_codegen(func, trials)
        rows.append(CodegenRow(
            workload=label,
            ast_compile_s=ast_s,
            text_compile_s=text_s,
            codegen_speedup=text_s / ast_s if ast_s else 0.0,
            lowered_ops=ops,
        ))
    return rows


# -- decoded-tier superinstruction fusion -------------------------------------

def _time_decoded(factory, entry, args, trials):
    """Best warm decoded-tier run (decode happens before the clock
    starts) and the module's summed fusion counters."""
    module = factory()
    engine = ExecutionEngine(module, tier="decoded")
    engine.get_compiled(module.get_function(entry))
    best = None
    for _ in range(trials):
        start = time.perf_counter()
        engine.run(entry, *args)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    totals = {"cmp_br": 0, "op_chain": 0, "phi_copy": 0}
    for per_func in engine.stats_snapshot()["fusion"].values():
        for key in totals:
            totals[key] += per_func[key]
    return best, totals


def run_fusion(trials: int = 3, smoke: bool = False) -> List[FusionRow]:
    """Decoded-tier run time and what the decoder fused to get it."""
    cases = [
        (label, (lambda n=name: compile_benchmark(SUITE[n], "unoptimized")),
         SUITE[name].entry, args)
        for label, name, args in FUSION_WORKLOADS
    ]
    if smoke:
        trials = 1
        cases = [
            ("fannkuch-4",
             lambda: compile_benchmark(SUITE["fannkuch"], "unoptimized"),
             SUITE["fannkuch"].entry, (4,)),
        ]
    rows: List[FusionRow] = []
    for label, factory, entry, args in cases:
        decoded_s, totals = _time_decoded(factory, entry, args, trials)
        rows.append(FusionRow(
            workload=label,
            decoded_s=decoded_s,
            cmp_br=totals["cmp_br"],
            op_chain=totals["op_chain"],
            phi_copy=totals["phi_copy"],
        ))
    return rows


# -- OSR intrusiveness over the compiled artifact -----------------------------

def run_intrusiveness() -> List[IntrusivenessRow]:
    """Figure 8: artifact growth from one never-firing resolved OSR point."""
    native_module = parse_module(SUM_LOOP)
    native_engine = ExecutionEngine(native_module)
    native_ops = lowered_op_count(
        native_module.get_function("hot"), native_engine)

    osr_module = parse_module(SUM_LOOP)
    osr_engine = ExecutionEngine(osr_module)
    osr_func = osr_module.get_function("hot")
    loop = osr_func.get_block("loop")
    insert_resolved_osr_point(
        osr_func, loop.instructions[loop.first_non_phi_index],
        HotCounterCondition(HotCounterCondition.NEVER),
        engine=osr_engine,
    )
    osr_ops = lowered_op_count(osr_func, osr_engine)
    return [IntrusivenessRow(
        workload="sum-loop",
        native_ops=native_ops,
        osr_ops=osr_ops,
        delta_ops=osr_ops - native_ops,
    )]


def format_codegen(rows: List[CodegenRow]) -> str:
    header = (f"{'workload':<14} {'ast-direct':>12} {'text-path':>12} "
              f"{'speedup':>9} {'ops':>7}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.workload:<14} {r.ast_compile_s:>12.6f} "
            f"{r.text_compile_s:>12.6f} {r.codegen_speedup:>8.2f}x "
            f"{r.lowered_ops:>7}"
        )
    return "\n".join(lines)


def format_fusion(rows: List[FusionRow]) -> str:
    header = (f"{'workload':<14} {'decoded':>10} "
              f"{'cmp+br':>7} {'chains':>7} {'phi':>5}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.workload:<14} {r.decoded_s:>10.4f} "
            f"{r.cmp_br:>7} {r.op_chain:>7} {r.phi_copy:>5}"
        )
    return "\n".join(lines)


def format_intrusiveness(rows: List[IntrusivenessRow]) -> str:
    header = (f"{'workload':<14} {'native ops':>11} {'osr ops':>9} "
              f"{'delta':>7}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.workload:<14} {r.native_ops:>11} {r.osr_ops:>9} "
            f"{r.delta_ops:>7}"
        )
    return "\n".join(lines)


# -- pytest-benchmark cases ---------------------------------------------------

def test_figure8_lowered_code_delta(benchmark):
    rows = benchmark.pedantic(run_intrusiveness, rounds=1, iterations=1)
    from .conftest import report

    report("Figure 8 analogue — compiled-artifact intrusiveness",
           format_intrusiveness(rows))
    for row in rows:
        # the hot-path addition is a handful of operations (counter
        # update + threshold check + the out-of-line firing block), not
        # a rewrite of the function
        assert 0 < row.delta_ops <= 64, row


def test_ast_codegen_beats_text(benchmark):
    rows = benchmark.pedantic(lambda: run_codegen(trials=3), rounds=1,
                              iterations=1)
    from .conftest import report

    report("Cold codegen — AST-direct vs text round-trip",
           format_codegen(rows))
    for row in rows:
        # the acceptance bar for the AST-direct rewrite: at least 30%
        # off the cold lowering cost (speedup >= 1.43x)
        assert row.ast_compile_s <= 0.7 * row.text_compile_s, row


def test_fusion_counters(benchmark):
    rows = benchmark.pedantic(lambda: run_fusion(trials=7), rounds=1,
                              iterations=1)
    from .conftest import report

    report("Decoded tier — superinstruction fusion", format_fusion(rows))
    for row in rows:
        assert row.cmp_br > 0, row
        assert row.op_chain > 0, row


@pytest.mark.parametrize("ir_size_benchmark", ["fannkuch", "rev-comp"])
def test_instruction_count_growth(benchmark, ir_size_benchmark):
    """IR-level intrusiveness per benchmark (Table 3's |IR| column plus
    the instrumentation delta)."""

    def measure():
        from repro.experiments.q1 import instrument_never_firing

        bench = SUITE[ir_size_benchmark]
        module = compile_benchmark(bench, "optimized")
        hot = module.get_function(bench.q1_functions[0])
        before = hot.instruction_count
        engine = ExecutionEngine(module)
        instrument_never_firing(module, bench, engine)
        after = module.get_function(bench.q1_functions[0]).instruction_count
        return before, after

    before, after = benchmark.pedantic(measure, rounds=1, iterations=1)
    # counter phi + decrement + compare + branch + firing-block call/ret
    assert before < after <= before + 12
