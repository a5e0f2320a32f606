"""Automatic state-mapping construction.

The paper's concluding remark: "In our implementation, encoding
compensation code is currently delegated to the front-end.  Future work
may investigate automatic ways to build it for certain classes of
compiler optimizations."  This module implements that future work for the
class of transformations that maintain a value correspondence map
(cloning, constant folding, DCE, simplify-CFG, and inlining as performed
by :mod:`repro.transform` — anything whose effect on values is captured
by a :class:`~repro.transform.clone.ValueMap`).

:func:`derive_state_mapping` builds the mapping a front-end would
otherwise write by hand:

1. values of the variant that correspond (through the map) to live values
   at the OSR origin are wired as :class:`FromParam` transfers;
2. values that correspond to a *non-live* base value — live at ``L'`` but
   dead at ``L``, the case the paper's compensation code exists for — are
   **recomputed**: compensation code is synthesized by cloning the
   defining instruction chain over the transferred live values;
3. anything else (a value the optimizer invented with no expressible
   provenance) raises :class:`AutoStateError` with a diagnosis, so the
   front-end knows exactly which value still needs manual glue.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..ir.builder import IRBuilder
from ..ir.function import BasicBlock, Function
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    SelectInst,
)
from ..ir.values import Argument, Constant, Value
from .continuation import OSRError, required_landing_state
from .statemap import Computed, FromConstant, FromParam, StateMapping


class AutoStateError(OSRError):
    """Raised when a landing value's provenance cannot be reconstructed."""


#: instruction kinds that are safe to *recompute* in compensation code:
#: pure, memory-free, single-result
_RECOMPUTABLE = (BinaryInst, ICmpInst, FCmpInst, CastInst, SelectInst,
                 GEPInst)

#: how deep a recompute plan may chase operands before giving up
MAX_RECOMPUTE_DEPTH = 8


def derive_state_mapping(
    live_values: Sequence[Value],
    vmap,
    variant: Function,
    landing: BasicBlock,
) -> StateMapping:
    """Automatically construct the state mapping for an OSR into
    ``variant`` at ``landing``.

    ``live_values`` are the base function's live values at the OSR
    origin (the continuation's parameters, in order); ``vmap`` is the
    base→variant value map the transformation maintained.
    """
    # invert the transformation map: variant value -> base value
    inverse: Dict[int, Value] = {}
    for base_value, variant_value in vmap.items():
        inverse[id(variant_value)] = base_value

    live_index = {id(v): i for i, v in enumerate(live_values)}
    mapping = StateMapping()

    for required in required_landing_state(variant, landing):
        base_value = inverse.get(id(required))
        if base_value is not None and id(base_value) in live_index:
            mapping.set(required,
                        FromParam(live_index[id(base_value)]))
            continue
        if isinstance(required, Constant):  # pragma: no cover - defensive
            mapping.set(required, FromConstant(required))
            continue
        # live at L' but not at L: synthesize compensation code that
        # recomputes it from the transferred values
        plan = _recompute_plan(required, inverse, live_index)
        if plan is None:
            origin = (f" (maps back to %{base_value.name})"
                      if base_value is not None else "")
            raise AutoStateError(
                f"cannot automatically reconstruct %{required.name} live "
                f"at %{landing.name} of @{variant.name}{origin}; provide "
                f"a manual Computed source for it"
            )
        mapping.set(required, _compile_plan(required, plan, live_index,
                                            inverse))
    return mapping


def _recompute_plan(value: Value, inverse, live_index
                    ) -> Optional[List[Instruction]]:
    """Topologically ordered pure instructions whose clones rebuild
    ``value`` from live transfers; ``None`` if impossible."""
    order: List[Instruction] = []
    seen: Dict[int, bool] = {}

    def visit(node: Value, depth: int) -> bool:
        if isinstance(node, Constant):
            return True
        base = inverse.get(id(node))
        if base is not None and id(base) in live_index:
            return True
        if isinstance(node, Argument):
            return False  # an argument that is not transferred is lost
        if not isinstance(node, _RECOMPUTABLE):
            return False
        if depth > MAX_RECOMPUTE_DEPTH:
            return False
        if id(node) in seen:
            return seen[id(node)]
        seen[id(node)] = False  # provisional (cycle guard)
        for op in node.operands:
            if not visit(op, depth + 1):
                return False
        seen[id(node)] = True
        order.append(node)
        return True

    if not visit(value, 0):
        return None
    return order


def _compile_plan(value: Value, plan: List[Instruction], live_index,
                  inverse) -> Computed:
    """Wrap a recompute plan as a Computed compensation source."""

    def emit(builder: IRBuilder, params):
        from ..transform.clone import ValueMap, clone_instruction

        local = ValueMap()

        def resolve(node: Value) -> Value:
            base = inverse.get(id(node))
            if base is not None and id(base) in live_index:
                return params[live_index[id(base)]]
            mapped = local.get(node)
            if mapped is not None:
                return mapped
            return node  # constants

        for inst in plan:
            copy = clone_instruction(inst, _ResolvingMap(resolve))
            builder._insert(copy)
            local[inst] = copy
        return resolve(value)

    names = ", ".join(f"%{i.name}" for i in plan)
    return Computed(emit, description=f"recompute [{names}]")


class _ResolvingMap:
    """Adapter giving clone_instruction a callable-backed lookup."""

    def __init__(self, resolve):
        self._resolve = resolve

    def lookup(self, value: Value) -> Value:
        return self._resolve(value)
