"""The speculation pass: a clone specialized behind one entry check.

Driven by :class:`~repro.vm.profile.ValueFeedback`: when a function's
profile says an argument slot is monomorphic, the pass clones the
function, folds the argument to the observed constant, and puts one
check in front of the folded body — a new entry block that compares the
runtime argument with the constant:

* the *hit* edge enters the specialized body, which then constant
  folding, CFG simplification and DCE shrink (branches on the
  speculated value fold away: this is where the speedup comes from);
* the *miss* edge returns the result of an ordinary call of a
  per-version declaration, ``@<clone>.miss``, with the function's own
  arguments.  The speculation manager binds that symbol to its miss
  policy (:mod:`repro.spec.manager`), which calls code that is already
  compiled.

The speculated value is an SSA argument, so it cannot change once the
check passed: no later point of the body needs a check or an exit.
"""

from __future__ import annotations

import math
from typing import Optional

from ..ir.builder import IRBuilder
from ..ir.function import BasicBlock, Function, Module
from ..ir.types import FloatType, IntType
from ..ir.values import ConstantFloat, ConstantInt
from ..ir.verifier import verify_function
from ..obs import events as EV
from ..obs.telemetry import ambient as ambient_telemetry
from ..transform import eliminate_dead_code, fold_constants, simplify_cfg
from ..transform.clone import clone_function


class SpeculationError(Exception):
    """Raised when a function cannot be specialized."""


class SpecializedVersion:
    """One speculative clone of a baseline function."""

    __slots__ = ("baseline", "function", "miss", "arg_index", "value")

    def __init__(self, baseline: Function, function: Function,
                 miss: Function, arg_index: int, value):
        self.baseline = baseline
        self.function = function
        #: the declaration the entry check's miss edge calls
        self.miss = miss
        self.arg_index = arg_index
        #: the speculated constant for argument ``arg_index``
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<SpecializedVersion @{self.function.name} of "
            f"@{self.baseline.name} arg{self.arg_index}={self.value!r}>"
        )


def _speculation_constant(arg_type, value):
    if isinstance(arg_type, IntType) and type(value) is int:
        return ConstantInt(arg_type, arg_type.wrap(value))
    # the check cannot tell -0.0 from 0.0 (the folded body can), and NaN
    # equals nothing
    if (isinstance(arg_type, FloatType) and type(value) is float
            and value != 0.0 and not math.isnan(value)):
        return ConstantFloat(arg_type, value)
    return None


def specialize_function(
    baseline: Function,
    arg_index: int,
    value,
    module: Optional[Module] = None,
    telemetry=None,
) -> SpecializedVersion:
    """Build a specialization of ``baseline`` for
    ``args[arg_index] == value``, checked once at entry.

    The clone and its miss declaration go into ``module`` (default: the
    baseline's); the baseline is left untouched.
    """
    if baseline.is_declaration:
        raise SpeculationError(f"cannot specialize declaration @{baseline.name}")
    if not 0 <= arg_index < len(baseline.args):
        raise SpeculationError(
            f"@{baseline.name} has no argument {arg_index}"
        )
    const = _speculation_constant(baseline.args[arg_index].type, value)
    if const is None:
        raise SpeculationError(
            f"cannot speculate {value!r} for argument "
            f"of type {baseline.args[arg_index].type}"
        )
    module = module if module is not None else baseline.module
    if module is None:
        raise SpeculationError("baseline has no module and none was provided")

    tel = telemetry if telemetry is not None else ambient_telemetry()
    with tel.span(EV.SPEC_SPECIALIZE, function=baseline.name,
                  arg_index=arg_index, value=repr(value)):
        spec_name = module.unique_name(f"{baseline.name}.spec")
        clone, _ = clone_function(baseline, spec_name, module)
        clone.attributes["spec.of"] = baseline.name
        clone.attributes["spec.arg"] = str(arg_index)
        miss = module.declare_function(module.unique_name(f"{spec_name}.miss"),
                                       baseline.function_type)
        arg = clone.args[arg_index]
        body = clone.entry
        # every use of the argument in the body now reads the constant;
        # only the check and the miss call below read the runtime value
        arg.replace_all_uses_with(const)

        builder = IRBuilder()
        check = clone.insert_block_front(BasicBlock("spec.entry"))
        missed = clone.add_block(BasicBlock("spec.miss"))
        builder.position_at_end(check)
        if isinstance(arg.type, FloatType):
            hit = builder.fcmp("oeq", arg, const, "spec.hit")
        else:
            hit = builder.icmp("eq", arg, const, "spec.hit")
        builder.cond_br(hit, body, missed)
        builder.position_at_end(missed)
        void = clone.return_type.is_void
        result = builder.call(miss, list(clone.args),
                              "" if void else "spec.result")
        builder.ret(None if void else result)

        fold_constants(clone)
        simplify_cfg(clone)
        eliminate_dead_code(clone)
        clone.assign_names()
        verify_function(clone)
    return SpecializedVersion(baseline, clone, miss, arg_index, value)
