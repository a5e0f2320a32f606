#!/usr/bin/env python3
"""Deoptimization via resolved OSR (paper Section 2).

A function is compiled under the speculative assumption that its divisor
argument is never zero, removing the zero check from the hot path.  A
guard condition watches the assumption; when it fails, a resolved OSR
point transfers execution — with its live state — back into the *safe*
base version, exactly at the equivalent program point.  No interpreter is
needed as a fallback (one of the paper's claims).

Run:  python examples/deoptimization.py
"""

from repro.core import (
    GuardCondition,
    insert_resolved_osr_point,
    required_landing_state,
)
from repro.ir import parse_module, print_function
from repro.vm import ExecutionEngine

SOURCE = """
define i64 @sum_of_quotients(i64 %total, i64 %b) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 1, %entry ], [ %i2, %check.cont ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %check.cont ]
  br label %check
check:
  %z = icmp eq i64 %b, 0
  br i1 %z, label %bail, label %check.cont
check.cont:
  %q = sdiv i64 %i, %b
  %acc2 = add i64 %acc, %q
  %i2 = add i64 %i, 1
  %more = icmp sle i64 %i2, %total
  br i1 %more, label %loop, label %done
bail:
  ret i64 -1
done:
  ret i64 %acc2
}

define i64 @sum_of_quotients_spec(i64 %total, i64 %b) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 1, %entry ], [ %i2, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %loop ]
  %q = sdiv i64 %i, %b
  %acc2 = add i64 %acc, %q
  %i2 = add i64 %i, 1
  %more = icmp sle i64 %i2, %total
  br i1 %more, label %loop, label %done
done:
  ret i64 %acc2
}
"""


def main():
    module = parse_module(SOURCE)
    engine = ExecutionEngine(module)
    safe = module.get_function("sum_of_quotients")
    spec = module.get_function("sum_of_quotients_spec")

    # guard: the speculative version is about to divide — deoptimize if
    # the "b is never zero" assumption fails
    def emit_guard(func, builder):
        return builder.icmp("eq", func.args[1], builder.const_i64(0),
                            "assumption.failed")

    # the OSR lands at the safe version's 'check' block; map its live
    # state (total, b, i, acc) from the speculative version's live values
    landing = safe.get_block("check")
    required = required_landing_state(safe, landing)
    print("live state required at the deopt landing point:",
          [v.name for v in required])

    spec_loop = spec.get_block("loop")
    location = spec_loop.instructions[spec_loop.first_non_phi_index]

    # live at the spec OSR point: (total, b, i, acc) — same order
    from repro.analysis import LivenessInfo

    live = LivenessInfo(spec).live_before(location)
    by_name = {v.name: index for index, v in enumerate(live)}
    mapping = {value: by_name[value.name] for value in required}

    result = insert_resolved_osr_point(
        spec, location, GuardCondition(emit_guard),
        variant=safe, landing=landing, mapping=mapping,
        cont_name="sum_of_quotients.deopt", engine=engine,
    )
    print("\n=== speculative version with deopt guard ===")
    print(print_function(spec))
    print("\n=== deopt continuation (resumes in the safe version) ===")
    print(print_function(result.continuation))

    print("\nassumption holds  (b=3):",
          engine.run("sum_of_quotients_spec", 10, 3))
    print("assumption fails  (b=0):",
          engine.run("sum_of_quotients_spec", 10, 0),
          "(deoptimized gracefully — no division-by-zero trap)")


if __name__ == "__main__":
    main()
