"""State mapping and compensation code.

When an OSR transfers control from point ``L`` of ``f`` to point ``L'``
of a variant ``f'``, the continuation function must reconstruct every
value that is live at ``L'`` from the values that were live at ``L`` —
the paper's *state mapping*, plus *compensation code* for the cases where
a value does not transfer verbatim (e.g. it is boxed in ``f`` and unboxed
in ``f'``, or live at ``L'`` but not at ``L``).

A :class:`StateMapping` assigns each live-in value of ``L'`` (a value of
the *variant*, pre-cloning) a :class:`ValueSource`:

* :class:`FromParam` — the value arrives verbatim as the n-th transferred
  live value;
* :class:`FromConstant` — the value is a compile-time constant in the
  continuation;
* :class:`Computed` — compensation code: a callback that emits IR in the
  continuation's ``osr.entry`` block, receiving the continuation's
  parameters.

An optional ``prologue`` callback can emit additional side-effecting
compensation code (heap adjustments) before any mapped value is consumed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..ir.builder import IRBuilder
from ..ir.values import Argument, Constant, Value


class ValueSource:
    """How a live-in value of the OSR landing point obtains its value."""

    def materialize(self, builder: IRBuilder, params: List[Argument]) -> Value:
        raise NotImplementedError


class FromParam(ValueSource):
    """The value is the ``index``-th live value transferred at the OSR."""

    def __init__(self, index: int):
        self.index = index

    def materialize(self, builder: IRBuilder, params: List[Argument]) -> Value:
        return params[self.index]

    def __repr__(self) -> str:  # pragma: no cover
        return f"FromParam({self.index})"


class FromConstant(ValueSource):
    """The value is a constant, independent of the transferred state."""

    def __init__(self, constant: Constant):
        self.constant = constant

    def materialize(self, builder: IRBuilder, params: List[Argument]) -> Value:
        return self.constant

    def __repr__(self) -> str:  # pragma: no cover
        return f"FromConstant({self.constant.ref})"


class Computed(ValueSource):
    """Compensation code: ``emit(builder, params)`` produces the value.

    The callback runs with the builder positioned in ``osr.entry`` and may
    emit any number of instructions (unboxing calls, environment lookups,
    allocations — compare the paper's Figure 9).
    """

    def __init__(self, emit: Callable[[IRBuilder, List[Argument]], Value],
                 description: str = "compensation"):
        self.emit = emit
        self.description = description

    def materialize(self, builder: IRBuilder, params: List[Argument]) -> Value:
        return self.emit(builder, params)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Computed({self.description})"


class StateMapping:
    """Maps each live-in value of the landing point to a value source."""

    def __init__(
        self,
        prologue: Optional[Callable[[IRBuilder, List[Argument]], None]] = None,
    ):
        #: variant-function value -> source, filled through :meth:`set`
        self.sources: Dict[int, ValueSource] = {}
        self._keys: Dict[int, Value] = {}
        #: side-effecting compensation prologue, run first in osr.entry
        self.prologue = prologue

    def set(self, value: Value, source: ValueSource) -> None:
        self.sources[id(value)] = source
        self._keys[id(value)] = value

    def get(self, value: Value) -> Optional[ValueSource]:
        return self.sources.get(id(value))

    def items(self):
        for key, source in self.sources.items():
            yield self._keys[key], source

    def __len__(self) -> int:
        return len(self.sources)

    def source_stats(self) -> Dict[str, int]:
        """How the landing state is reconstructed: a count per source
        kind (``params`` transfer verbatim, ``constants`` cost nothing at
        run time, ``computed`` is compensation code).  Scalarization
        shows up here as fewer entries overall — state that became a
        dead SSA scratch value needs no source at all."""
        stats = {"params": 0, "constants": 0, "computed": 0}
        for source in self.sources.values():
            if isinstance(source, FromParam):
                stats["params"] += 1
            elif isinstance(source, FromConstant):
                stats["constants"] += 1
            else:
                stats["computed"] += 1
        return stats

    @classmethod
    def identity(cls, live_values: Sequence[Value]) -> "StateMapping":
        """The 1:1 mapping used when the variant's landing state equals
        the base function's state at ``L`` (e.g. OSR to a clone): live
        value ``i`` of the base maps from parameter ``i``.

        The mapping keys here are the *base-function* values; callers
        transferring to a clone translate keys through the clone's value
        map (see :func:`repro.core.continuation.generate_continuation`).
        """
        mapping = cls()
        for index, value in enumerate(live_values):
            mapping.set(value, FromParam(index))
        return mapping

    def translate_keys(self, vmap) -> "StateMapping":
        """Return a copy with each key pushed through a clone value map."""
        translated = StateMapping(prologue=self.prologue)
        for value, source in self.items():
            translated.set(vmap.lookup(value), source)
        return translated
