"""Cross-cutting integration scenarios combining multiple OSR features."""

import pytest

from repro.core import (
    HotCounterCondition,
    insert_resolved_osr_point,
)
from repro.ir import parse_module, verify_function
from repro.mcvm import McVM
from repro.vm import ExecutionEngine

TWO_LOOPS = """
define i64 @two_phase(i64 %n) {
entry:
  br label %up
up:
  %i = phi i64 [ 0, %entry ], [ %i2, %up ]
  %a = phi i64 [ 0, %entry ], [ %a2, %up ]
  %a2 = add i64 %a, %i
  %i2 = add i64 %i, 1
  %c1 = icmp slt i64 %i2, %n
  br i1 %c1, label %up, label %mid
mid:
  br label %down
down:
  %j = phi i64 [ %n, %mid ], [ %j2, %down ]
  %b = phi i64 [ %a2, %mid ], [ %b2, %down ]
  %b2 = add i64 %b, %j
  %j2 = sub i64 %j, 1
  %c2 = icmp sgt i64 %j2, 0
  br i1 %c2, label %down, label %out
out:
  ret i64 %b2
}
"""


def expected_two_phase(n):
    a = sum(range(n))
    return a + sum(range(1, n + 1))


class TestMultipleOSRPoints:
    def test_two_points_in_one_function(self):
        module = parse_module(TWO_LOOPS)
        engine = ExecutionEngine(module)
        func = module.get_function("two_phase")
        expected = expected_two_phase(500)
        assert engine.run("two_phase", 500) == expected

        for block_name in ("up", "down"):
            block = func.get_block(block_name)
            insert_resolved_osr_point(
                func, block.instructions[block.first_non_phi_index],
                HotCounterCondition(50), engine=engine,
            )
        verify_function(func)
        # both points can fire in one invocation (first in 'up', then the
        # continuation of... no: after the first fires, control lives in
        # the continuation; the second point fires on the next call)
        assert engine.run("two_phase", 500) == expected
        assert engine.run("two_phase", 10) == expected_two_phase(10)


class TestFevalTargetChanges:
    SRC = """
function y = sq(x)
  y = x * x;
end

function y = cube(x)
  y = x * x * x;
end

function w = accumulate(g, n)
  w = 0.0;
  i = 0.0;
  while i < n
    w = w + feval(g, i);
    i = i + 1.0;
  end
end
"""

    def test_two_targets_two_continuations(self):
        """The feval optimizer specializes per observed target: calling
        the same instrumented function with a different handle fires the
        OSR again and caches a second continuation."""
        vm = McVM(self.SRC, enable_osr=True)
        sq_result = vm.run("accumulate", "@sq", 100)
        cube_result = vm.run("accumulate", "@cube", 100)
        assert sq_result == sum(i * i for i in range(100))
        assert cube_result == sum(i ** 3 for i in range(100))
        assert vm.stats["feval_optimizations"] == 2
        targets = {key[2] for key in vm.engine.continuations()}
        assert targets == {"sq", "cube"}

    def test_alternating_targets_use_cache(self):
        vm = McVM(self.SRC, enable_osr=True)
        for _ in range(3):
            assert vm.run("accumulate", "@sq", 50) == sum(
                i * i for i in range(50)
            )
            assert vm.run("accumulate", "@cube", 50) == sum(
                i ** 3 for i in range(50)
            )
        assert vm.stats["feval_optimizations"] == 2  # one per target
        assert vm.stats["feval_cache_hits"] >= 4
