"""Open-OSR tests (paper Figures 3 and 6): stub shape, generator protocol,
and deferred-compilation behaviour."""

import pytest

from repro.core import (
    AlwaysCondition,
    HotCounterCondition,
    OSRError,
    generate_continuation,
    insert_open_osr_point,
    required_landing_state,
)
from repro.ir import print_function, verify_function
from repro.ir import types as T
from repro.ir.constexpr import ConstantIntToPtr
from repro.ir.instructions import CallInst, IndirectCallInst
from repro.vm import ExecutionEngine

from ..conftest import build_sum_loop


def loop_location(func):
    loop = func.get_block("loop")
    return loop.instructions[loop.first_non_phi_index]


def clone_generator(module):
    """A generator that returns a continuation over a pristine clone."""
    calls = []

    def generator(f, block, env, val):
        calls.append((f, block, env, val))
        live = env["live"]
        by_name = {v.name: i for i, v in enumerate(live)}
        mapping = {v: by_name[v.name]
                   for v in required_landing_state(f, block)}
        return generate_continuation(f, block, live, mapping,
                                     name=f.name + "to", module=module)

    return generator, calls


class TestStubShape:
    def test_stub_signature(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        generator, _ = clone_generator(module)
        env = {"live": None}
        result = insert_open_osr_point(
            func, loop_location(func), HotCounterCondition(10),
            generator, engine, env=env,
        )
        stub = result.stub
        assert stub.args[0].type == T.ptr(T.i8)  # val
        assert [a.name for a in stub.args] == [
            "val", "n_osr", "i_osr", "acc_osr",
        ]
        verify_function(stub)

    def test_stub_contains_inttoptr_constants(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        generator, _ = clone_generator(module)
        result = insert_open_osr_point(
            func, loop_location(func), HotCounterCondition(10),
            generator, engine, env={"live": None},
        )
        # Figure 6: the generator address and three i8* handles are baked
        # in as inttoptr constant expressions
        consts = [
            op
            for inst in result.stub.instructions()
            for op in inst.operands
            if isinstance(op, ConstantIntToPtr)
        ]
        assert len(consts) == 4

    def test_stub_tail_calls_generated_continuation(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        generator, _ = clone_generator(module)
        result = insert_open_osr_point(
            func, loop_location(func), HotCounterCondition(10),
            generator, engine, env={"live": None},
        )
        calls = [i for i in result.stub.instructions()
                 if isinstance(i, IndirectCallInst)]
        assert len(calls) == 2  # generator call + continuation call
        assert calls[1].is_tail

    def test_osr_block_passes_null_val_by_default(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        generator, _ = clone_generator(module)
        result = insert_open_osr_point(
            func, loop_location(func), HotCounterCondition(10),
            generator, engine, env={"live": None},
        )
        call = next(i for i in result.osr_block.instructions
                    if isinstance(i, CallInst))
        assert call.args[0].ref == "null"

    def test_non_pointer_val_rejected(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        with pytest.raises(OSRError):
            insert_open_osr_point(
                func, loop_location(func), HotCounterCondition(10),
                lambda *a: None, engine, val=func.args[0],  # i64, not ptr
            )


class TestGeneratorProtocol:
    def test_generator_called_once_per_fire(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        generator, calls = clone_generator(module)
        env = {"live": None}
        result = insert_open_osr_point(
            func, loop_location(func), HotCounterCondition(10),
            generator, engine, env=env,
        )
        env["live"] = result.live_values
        assert engine.run("sum", 100) == sum(range(100))
        assert len(calls) == 1
        assert engine.run("sum", 100) == sum(range(100))
        assert len(calls) == 2  # no caching in this generator

    def test_generator_receives_pristine_copy(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        generator, calls = clone_generator(module)
        env = {"live": None}
        result = insert_open_osr_point(
            func, loop_location(func), HotCounterCondition(10),
            generator, engine, env=env,
        )
        env["live"] = result.live_values
        engine.run("sum", 100)
        gen_f, gen_block, gen_env, gen_val = calls[0]
        assert gen_f is not func
        assert gen_f.name == "sum.orig"
        # the pristine copy carries no OSR machinery
        assert "osr" not in print_function(gen_f)
        assert gen_block.parent is gen_f
        assert gen_env is env

    def test_generator_never_called_when_cold(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)

        def exploding_generator(*args):  # pragma: no cover
            raise AssertionError("should not fire")

        insert_open_osr_point(
            func, loop_location(func),
            HotCounterCondition(HotCounterCondition.NEVER),
            exploding_generator, engine,
        )
        assert engine.run("sum", 1000) == sum(range(1000))

    def test_env_and_val_forwarded(self, module, isord_module):
        engine = ExecutionEngine(isord_module)
        isord = isord_module.get_function("isord")
        body = isord.get_block("loop.body")
        location = body.instructions[body.first_non_phi_index]
        seen = {}

        def generator(f, block, env, val):
            seen["env"] = env
            seen["val"] = val
            # fall back to a clone continuation
            live = seen["live"]
            by_name = {v.name: i for i, v in enumerate(live)}
            mapping = {v: by_name[v.name]
                       for v in required_landing_state(f, block)}
            return generate_continuation(f, block, live, mapping,
                                         module=isord_module)

        marker = object()
        result = insert_open_osr_point(
            isord, location, HotCounterCondition(100), generator,
            engine, env=marker, val=isord.args[2],
        )
        seen["live"] = result.live_values

        from ..conftest import make_i64_array

        cmp_handle = engine.handle_for(isord_module.get_function("cmplt"))
        arr = make_i64_array(list(range(500)))
        assert engine.run("isord", arr, 500, cmp_handle) == 1
        assert seen["env"] is marker
        assert seen["val"] is cmp_handle  # run-time value of %c

    def test_bad_generator_return_raises(self, module):
        func = build_sum_loop(module)
        engine = ExecutionEngine(module)
        result = insert_open_osr_point(
            func, loop_location(func), AlwaysCondition(),
            lambda *a: 42, engine,
        )
        with pytest.raises(OSRError, match="non-callable"):
            engine.run("sum", 10)
