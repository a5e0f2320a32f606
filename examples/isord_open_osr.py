#!/usr/bin/env python3
"""The paper's running example (Section 3, Figures 4-7): open OSR on
``isord`` with run-time comparator inlining.

``isord(v, n, c)`` checks that an array is ordered according to the
comparator ``c`` passed as a function pointer.  An open OSR point fires
after 1000 loop iterations; the generator then builds a faster variant by
inlining the *observed* comparator and transfers execution into it
mid-loop.

Run:  python examples/isord_open_osr.py
"""

import struct

from repro.core import (
    HotCounterCondition,
    generate_continuation,
    insert_open_osr_point,
    required_landing_state,
)
from repro.ir import parse_module, print_function
from repro.transform import (
    clone_function,
    eliminate_dead_code,
    fold_constants,
    inline_known_indirect_calls,
    optimize_function,
)
from repro.vm import ExecutionEngine, FunctionHandle, MemoryBuffer

SOURCE = """
define i32 @cmplt(i8* %a, i8* %b) {
entry:
  %pa = bitcast i8* %a to i64*
  %pb = bitcast i8* %b to i64*
  %va = load i64, i64* %pa
  %vb = load i64, i64* %pb
  %c = icmp sgt i64 %va, %vb
  %r = zext i1 %c to i32
  ret i32 %r
}

define i32 @isord(i64* %v, i64 %n, i32 (i8*, i8*)* %c) {
entry:
  %t0 = icmp sgt i64 %n, 1
  br i1 %t0, label %loop.body, label %exit
loop.header:
  %t1 = icmp slt i64 %i1, %n
  br i1 %t1, label %loop.body, label %exit
loop.body:
  %i = phi i64 [ %i1, %loop.header ], [ 1, %entry ]
  %t2 = getelementptr inbounds i64, i64* %v, i64 %i
  %t3 = add nsw i64 %i, -1
  %t4 = getelementptr inbounds i64, i64* %v, i64 %t3
  %t5 = bitcast i64* %t4 to i8*
  %t6 = bitcast i64* %t2 to i8*
  %t7 = tail call i32 %c(i8* %t5, i8* %t6)
  %t8 = icmp sgt i32 %t7, 0
  %i1 = add nuw nsw i64 %i, 1
  br i1 %t8, label %exit, label %loop.header
exit:
  %res = phi i32 [ 1, %entry ], [ 1, %loop.header ], [ 0, %loop.body ]
  ret i32 %res
}
"""


def make_array(values):
    buf = MemoryBuffer(8 * len(values), "array")
    for index, value in enumerate(values):
        struct.pack_into("<q", buf.data, 8 * index, value)
    return (buf, 0)


def make_generator(module, env):
    """gen(f, L, env, val): specialize f by inlining the comparator that
    ``val`` names at run time, then build the continuation (Figure 7)."""

    def generator(f, osr_block, _env, val):
        print(f"[gen] OSR fired; observed comparator = "
              f"@{val.function.name}")
        variant, vmap = clone_function(
            f, module.unique_name("isord.spec")
        )
        target = val.function if isinstance(val, FunctionHandle) else None
        inline_known_indirect_calls(variant, lambda call: target)
        fold_constants(variant)
        eliminate_dead_code(variant)
        landing = variant.get_block(vmap[osr_block].name)

        live = env["live"]
        by_name = {v.name: i for i, v in enumerate(live)}
        mapping = {v: by_name[v.name]
                   for v in required_landing_state(variant, landing)}
        continuation = generate_continuation(
            variant, landing, live, mapping, name="isordto", module=module
        )
        optimize_function(continuation, "optimized")
        print("[gen] generated continuation:")
        print(print_function(continuation))
        return continuation

    return generator


def main():
    module = parse_module(SOURCE)
    engine = ExecutionEngine(module)
    isord = module.get_function("isord")

    body = isord.get_block("loop.body")
    location = body.instructions[body.first_non_phi_index]
    env = {"live": None}
    result = insert_open_osr_point(
        isord, location, HotCounterCondition(1000),
        make_generator(module, env), engine,
        env=env, val=isord.args[2],
    )
    env["live"] = result.live_values

    print("=== isord_from (Figure 5 analogue) ===")
    print(print_function(result.function))
    print("\n=== isord_stub (Figure 6 analogue) ===")
    print(print_function(result.stub))

    comparator = engine.handle_for(module.get_function("cmplt"))

    print("\n--- short array: OSR never fires ---")
    short = make_array(list(range(100)))
    print("isord(sorted[100]) =", engine.run("isord", short, 100, comparator))

    print("\n--- long array: OSR fires after 1000 iterations ---")
    long_sorted = make_array(list(range(10_000)))
    print("isord(sorted[10000]) =",
          engine.run("isord", long_sorted, 10_000, comparator))

    values = list(range(5_000)) + [17, 4]
    long_unsorted = make_array(values)
    print("isord(unsorted) =",
          engine.run("isord", long_unsorted, len(values), comparator))


if __name__ == "__main__":
    main()
