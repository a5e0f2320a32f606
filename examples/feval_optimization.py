#!/usr/bin/env python3
"""The Q4 case study (paper Section 4): OSR-based feval optimization in
the mini-McVM.

Runs ``odeEuler`` (a Recktenwald ODE solver whose hot loop evaluates the
integrand through ``feval``) in three configurations:

* **base** — every feval goes through the generic boxed dispatcher;
* **osr**  — the paper's approach: an open OSR point fires in the hot
  loop, the optimizer clones the IIR, replaces feval with a direct call
  to the observed target, re-runs type inference (unboxing the whole
  loop) and resumes execution in the continuation, whose compensation
  entry block unboxes the live state (Figure 9);
* **direct** — feval replaced by hand in the source (the upper bound).

Run:  python examples/feval_optimization.py
"""

import time

from repro.ir import print_function
from repro.mcvm import McVM, Q4_BENCHMARKS


def timed(vm, entry, steps, repeats=3):
    vm.run(entry, steps)  # warm-up: compiles and (in osr mode) fires OSR
    best = min(
        _clock(lambda: vm.run(entry, steps)) for _ in range(repeats)
    )
    return best


def _clock(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main():
    benchmark = Q4_BENCHMARKS["odeEuler"]
    steps = benchmark.steps

    print(f"benchmark: {benchmark.name}, {steps} integration steps\n")

    base_vm = McVM(benchmark.source)
    base = timed(base_vm, benchmark.entry, steps)
    print(f"base   (boxed dispatcher): {base * 1000:8.2f} ms  "
          f"[{base_vm.stats['feval_dispatches']} dispatches]")

    osr_vm = McVM(benchmark.source, enable_osr=True)
    osr = timed(osr_vm, benchmark.entry, steps)
    print(f"osr    (IIR-level spec.):  {osr * 1000:8.2f} ms  "
          f"[{osr_vm.stats['feval_optimizations']} optimization, "
          f"{osr_vm.stats['feval_cache_hits']} cache hits]")

    direct_vm = McVM(benchmark.direct_source)
    direct = timed(direct_vm, benchmark.entry, steps)
    print(f"direct (by hand):          {direct * 1000:8.2f} ms")

    print(f"\nspeedup over base: osr {base / osr:5.2f}x, "
          f"direct {base / direct:5.2f}x "
          f"(osr reaches {100 * direct / osr:.1f}% of by-hand)")

    # show the compensation entry block — the Figure 9 analogue
    continuation = next(iter(osr_vm.engine.continuations().values()))
    text = print_function(continuation.function)
    entry_block = text.split("\n\n")[0]
    print("\n=== continuation with compensation entry "
          "(castUNKtoMF64 = unboxing, cf. paper Figure 9) ===")
    print(entry_block)
    print("...")

    base_result = base_vm.run(benchmark.entry, steps)
    osr_result = osr_vm.run(benchmark.entry, steps)
    direct_result = direct_vm.run(benchmark.entry, steps)
    assert abs(base_result - osr_result) < 1e-9
    assert abs(base_result - direct_result) < 1e-9
    print(f"\nall configurations agree: y({steps * 0.001:.0f}s) "
          f"= {base_result:.6f}")


if __name__ == "__main__":
    main()
