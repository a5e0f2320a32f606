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
   at the OSR origin map to their transfer index;
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

from ..ir.function import BasicBlock, Function
from ..ir.instructions import (
    BinaryInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    SelectInst,
)
from ..ir.values import Argument, Constant, Value
from ..transform.clone import ValueMap, clone_instruction
from .continuation import OSRError, StateMap, required_landing_state


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
    am=None,
) -> StateMap:
    """Automatically construct the state mapping for an OSR into
    ``variant`` at ``landing``.

    ``live_values`` are the base function's live values at the OSR
    origin (the continuation's parameters, in order); ``vmap`` is the
    base→variant value map the transformation maintained.  The landing
    state comes from ``am`` (defaulting to the process-wide manager) and
    is the mapping's key order, so a caller generating the continuation
    can pass ``list(mapping)`` on as its ``landing_state``.
    """
    # invert the transformation map: variant value -> base value
    inverse = {variant_value: base for base, variant_value in vmap.items()}
    live_index = {value: index for index, value in enumerate(live_values)}

    def transferred(value: Value) -> Optional[int]:
        return live_index.get(inverse.get(value))

    mapping: StateMap = {}
    for required in required_landing_state(variant, landing, am):
        index = transferred(required)
        if index is not None:
            mapping[required] = index
            continue
        # live at L' but not at L: synthesize compensation code that
        # recomputes it from the transferred values
        plan = _recompute_plan(required, transferred)
        if plan is None:
            base_value = inverse.get(required)
            origin = (f" (maps back to %{base_value.name})"
                      if base_value is not None else "")
            raise AutoStateError(
                f"cannot automatically reconstruct %{required.name} live "
                f"at %{landing.name} of @{variant.name}{origin}; provide "
                f"a compensation callable for it"
            )
        mapping[required] = _recompute(required, plan, transferred)
    return mapping


def _recompute_plan(value: Value, transferred
                    ) -> Optional[List[Instruction]]:
    """Topologically ordered pure instructions whose clones rebuild
    ``value`` from live transfers; ``None`` if impossible."""
    order: List[Instruction] = []
    seen: Dict[Value, bool] = {}

    def visit(node: Value, depth: int) -> bool:
        if isinstance(node, Constant) or transferred(node) is not None:
            return True
        if isinstance(node, Argument):
            return False  # an argument that is not transferred is lost
        if not isinstance(node, _RECOMPUTABLE):
            return False
        if depth > MAX_RECOMPUTE_DEPTH:
            return False
        if node in seen:
            return seen[node]
        seen[node] = False  # provisional (cycle guard)
        for op in node.operands:
            if not visit(op, depth + 1):
                return False
        seen[node] = True
        order.append(node)
        return True

    if not visit(value, 0):
        return None
    return order


def _recompute(value: Value, plan: List[Instruction], transferred):
    """Compensation code cloning ``plan`` over the transferred values."""
    seeds = {op: transferred(op) for inst in plan for op in inst.operands
             if transferred(op) is not None}

    def emit(builder, params):
        local = ValueMap({op: params[index] for op, index in seeds.items()})
        for inst in plan:
            local[inst] = builder._insert(clone_instruction(inst, local))
        return local[value]

    return emit
