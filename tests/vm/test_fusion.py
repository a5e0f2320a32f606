"""Unit tests for the decoded tier's superinstruction fusion.

The decoder's peephole fuses compare+branch pairs, single-use
producer→consumer chains and phi parallel copies into flat closures.
These tests pin the observable surface: the per-function fusion
counters, the ``decode.fuse`` telemetry event, and the invariants that
block weights (the step/OSR accounting unit) count IR instructions, not
closures, and that results match the tree-walking oracle.
"""

import pytest

from repro.ir import parse_module
from repro.obs import Telemetry, events
from repro.shootout import SUITE, compile_benchmark
from repro.vm import ExecutionEngine
from repro.vm.decode import decode_function

LOOP = """
define i64 @sumto(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc1, %loop ]
  %acc1 = add i64 %acc, %i
  %i1 = add i64 %i, 1
  %c = icmp sle i64 %i1, %n
  br i1 %c, label %loop, label %out
out:
  ret i64 %acc1
}
"""

#: straight-line producer chain: %a feeds only %b, %b feeds only the ret
CHAIN = """
define i64 @chain(i64 %n) {
entry:
  %a = add i64 %n, 1
  %b = mul i64 %a, 3
  ret i64 %b
}
"""


#: a switch whose scrutinee has other users (so it cannot fuse into the
#: terminator) and whose targets all carry phis fed by the switch block
SWITCH_PHI = """
define i64 @classify(i64 %x) {
entry:
  %k = and i64 %x, 3
  switch i64 %k, label %other [ i64 0, label %zero
                                i64 1, label %one ]
zero:
  %z = phi i64 [ %k, %entry ]
  %zb = phi i64 [ 100, %entry ]
  %zr = add i64 %z, %zb
  br label %out
one:
  %o = phi i64 [ %x, %entry ]
  %or = mul i64 %o, 2
  br label %out
other:
  %t = phi i64 [ %k, %entry ]
  %tb = phi i64 [ %x, %entry ]
  %tc = phi i64 [ 7, %entry ]
  %t1 = add i64 %t, %tb
  %tr = add i64 %t1, %tc
  br label %out
out:
  %r = phi i64 [ %zr, %zero ], [ %or, %one ], [ %tr, %other ]
  ret i64 %r
}
"""


def _decode(text, name):
    module = parse_module(text)
    engine = ExecutionEngine(module, tier="decoded")
    return decode_function(module.get_function(name), engine)


class TestFusionCounters:
    def test_cmp_br_and_phi_copies_counted(self):
        # one icmp feeding the conditional branch; two phi-carrying
        # edges (entry->loop and loop->loop); no single-use chains
        # (%acc1 and %i1 both have two users)
        decoded = _decode(LOOP, "sumto")
        assert decoded.fusion == {"cmp_br": 1, "op_chain": 0, "phi_copy": 2}

    def test_op_chains_counted(self):
        # %a -> %b is one chain link, %b -> ret another
        decoded = _decode(CHAIN, "chain")
        assert decoded.fusion == {"cmp_br": 0, "op_chain": 2, "phi_copy": 0}

    @pytest.mark.parametrize("text, name", [
        (LOOP, "sumto"), (CHAIN, "chain"), (SWITCH_PHI, "classify"),
    ])
    def test_block_weights_count_ir_instructions(self, text, name):
        # fused superinstructions still account for every IR
        # instruction: the step limit and OSR hot counters see one unit
        # per non-phi instruction (terminator included), however many
        # closures the block decoded to
        decoded = _decode(text, name)
        for block, (steps, _, weight) in zip(decoded.func.blocks,
                                             decoded.blocks):
            expected = len(block.instructions) - block.first_non_phi_index
            assert weight == expected, block.name
            assert len(steps) + 1 <= weight, block.name


class TestEngineSurface:
    def test_decoded_agrees_with_oracle(self):
        for tier in ("decoded", "interp"):
            engine = ExecutionEngine(parse_module(LOOP), tier=tier)
            assert engine.run("sumto", 10) == 55, tier

    def test_unfused_switch_with_phi_targets_matches_oracle(self):
        # the scrutinee stays in its slot (it also feeds phis) and each
        # of the three switch edges, like the three edges into %out,
        # performs its phi parallel copy inside the jump closure; the
        # only chain link is %t1 -> %tr
        decoded = _decode(SWITCH_PHI, "classify")
        assert decoded.fusion == {"cmp_br": 0, "op_chain": 1, "phi_copy": 6}
        oracle = ExecutionEngine(parse_module(SWITCH_PHI), tier="interp")
        engine = ExecutionEngine(parse_module(SWITCH_PHI), tier="decoded")
        for x in (0, 1, 2, 3, 4, 5, 6, -1, -4, 1 << 40):
            assert engine.run("classify", x) == oracle.run("classify", x), x

    def test_stats_snapshot_exposes_fusion(self):
        engine = ExecutionEngine(parse_module(LOOP), tier="decoded")
        assert engine.run("sumto", 10) == 55
        fusion = engine.stats_snapshot()["fusion"]
        assert fusion["sumto"] == {"cmp_br": 1, "op_chain": 0, "phi_copy": 2}

    @pytest.mark.parametrize("name, args, expected", [
        ("fannkuch", (6,), (12, 31, 20)),
        ("fasta", (300,), (2, 70, 4)),
        ("rev-comp", (120,), (5, 50, 8)),
    ])
    def test_shootout_fusion_totals(self, name, args, expected):
        # what the decoder fuses on compare/branch-heavy real programs
        # (``unoptimized`` pipeline, summed over the functions the run
        # decodes): a decoder or frontend change that moves these moves
        # the decoded tier's dispatch count, so it has to say so here
        benchmark = SUITE[name]
        engine = ExecutionEngine(compile_benchmark(benchmark, "unoptimized"),
                                 tier="decoded")
        engine.run(benchmark.entry, *args)
        fusion = engine.stats_snapshot()["fusion"].values()
        totals = tuple(sum(per_func[key] for per_func in fusion)
                       for key in ("cmp_br", "op_chain", "phi_copy"))
        assert totals == expected

    def test_decode_fuse_event_carries_counters(self):
        tel = Telemetry()
        engine = ExecutionEngine(parse_module(LOOP), tier="decoded",
                                 telemetry=tel)
        assert engine.run("sumto", 10) == 55
        assert events.validate_events(tel.events) == []
        fuses = [e for e in tel.events if e["name"] == events.DECODE_FUSE]
        assert len(fuses) == 1
        assert fuses[0]["args"]["function"] == "sumto"
        assert fuses[0]["args"]["cmp_br"] == 1
        assert fuses[0]["args"]["phi_copy"] == 2

    def test_decode_fuse_counted_without_telemetry(self):
        engine = ExecutionEngine(parse_module(LOOP), tier="decoded")
        assert engine.run("sumto", 10) == 55
        assert engine.metrics.counter(events.DECODE_FUSE) == 1

    def test_no_event_when_nothing_fuses(self):
        # a function with no fusible shapes stays silent
        tel = Telemetry()
        engine = ExecutionEngine(
            parse_module("define i64 @id(i64 %x) {\nentry:\n  ret i64 %x\n}"),
            tier="decoded", telemetry=tel)
        assert engine.run("id", 7) == 7
        assert not [e for e in tel.events
                    if e["name"] == events.DECODE_FUSE]
