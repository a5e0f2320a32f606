"""Runtime value representation and memory model.

The VM executes IR over these runtime values:

* integers — Python ints kept in the type's canonical signed range;
* floats — Python floats;
* pointers — ``(buffer, offset)`` pairs where ``buffer`` is a
  :class:`MemoryBuffer` (byte-addressable, like a malloc'd region or a
  stack slot) and ``offset`` is a byte offset;
* function pointers — :class:`FunctionHandle` objects resolved through the
  execution engine (so lazy compilation and OSR redirection work);
* opaque handles — arbitrary Python objects smuggled through ``i8*``
  values, which is how OSR stubs carry IR objects and code-generation
  environments (the paper bakes raw addresses into the stub IR; we bake
  object-table handles).

Byte-addressability matters: the shootout programs (fasta, rev-comp)
manipulate byte buffers through bitcast pointers, exactly like the C
originals.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Optional, Tuple, Union

from ..ir import types as T


class Trap(Exception):
    """Raised on undefined behaviour (division by zero, unreachable, OOB)."""


class MemoryBuffer:
    """A byte-addressable allocation (heap block, stack slot or global)."""

    __slots__ = ("data", "label", "freed")

    def __init__(self, size: int, label: str = ""):
        self.data = bytearray(size)
        self.label = label
        self.freed = False

    def __len__(self) -> int:
        return len(self.data)

    def check(self, offset: int, size: int) -> None:
        if self.freed:
            raise MemoryError(f"use-after-free on buffer {self.label!r}")
        if offset < 0 or offset + size > len(self.data):
            raise MemoryError(
                f"out-of-bounds access on {self.label!r}: "
                f"[{offset}, {offset + size}) of {len(self.data)} bytes"
            )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MemoryBuffer {self.label!r} {len(self.data)}B>"


#: a runtime pointer: (buffer, byte offset)
Pointer = Tuple[MemoryBuffer, int]

NULL: Pointer = (MemoryBuffer(0, "null"), 0)


def is_null(pointer: Pointer) -> bool:
    return pointer[0] is NULL[0]


_STRUCTS = {
    (1, True): struct.Struct("<b"),
    (2, True): struct.Struct("<h"),
    (4, True): struct.Struct("<i"),
    (8, True): struct.Struct("<q"),
}
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")


class FunctionHandle:
    """Runtime value of a function: callable, lazily compiled.

    Calling the handle asks the execution engine for an executable (which
    may trigger compilation — MCJIT's compile-on-first-call) and caches it.
    The engine may *redirect* a handle (used when OSR replaces a function
    version), which transparently invalidates the cache.
    """

    __slots__ = ("engine", "function", "_compiled")

    def __init__(self, engine, function):
        self.engine = engine
        self.function = function
        self._compiled: Optional[Callable] = None

    def __call__(self, *args):
        compiled = self._compiled
        if compiled is None:
            compiled = self.engine.get_compiled(self.function)
            self._compiled = compiled
        return compiled(*args)

    def invalidate(self) -> None:
        self._compiled = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FunctionHandle @{self.function.name}>"


class NativeHandle:
    """Runtime value of a host (Python) function exposed to IR code."""

    __slots__ = ("name", "callable")

    def __init__(self, name: str, callable: Callable):
        self.name = name
        self.callable = callable

    def __call__(self, *args):
        return self.callable(*args)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NativeHandle {self.name}>"


def store_scalar(ty: T.Type, pointer, value) -> None:
    """Store one scalar of IR type ``ty`` at ``pointer``.

    Pointer-typed and handle values are stored in a side slot encoding:
    buffers hold raw bytes for ints/floats; storing a pointer writes an
    index into the buffer's handle table (see :class:`HandleHeap`)."""
    buf, off = pointer
    if isinstance(ty, T.IntType):
        size = T.size_of(ty)
        buf.check(off, size)
        if size in (1, 2, 4, 8):
            _STRUCTS[(size, True)].pack_into(buf.data, off, ty.wrap(value))
        else:
            raw = ty.to_unsigned(value).to_bytes(size, "little")
            buf.data[off:off + size] = raw
    elif isinstance(ty, T.FloatType):
        buf.check(off, T.size_of(ty))
        (_F32 if ty.bits == 32 else _F64).pack_into(buf.data, off, value)
    elif isinstance(ty, T.PointerType):
        HANDLE_HEAP.store(pointer, value)
    else:
        raise TypeError(f"cannot store scalar of type {ty}")


def load_scalar(ty: T.Type, pointer):
    """Load one scalar of IR type ``ty`` from ``pointer``."""
    buf, off = pointer
    if isinstance(ty, T.IntType):
        size = T.size_of(ty)
        buf.check(off, size)
        if size in (1, 2, 4, 8):
            raw = _STRUCTS[(size, True)].unpack_from(buf.data, off)[0]
        else:
            raw = int.from_bytes(buf.data[off:off + size], "little")
        return ty.wrap(raw)
    if isinstance(ty, T.FloatType):
        buf.check(off, T.size_of(ty))
        return (_F32 if ty.bits == 32 else _F64).unpack_from(buf.data, off)[0]
    if isinstance(ty, T.PointerType):
        return HANDLE_HEAP.load(pointer)
    raise TypeError(f"cannot load scalar of type {ty}")


def scalar_struct(ty: T.Type):
    """``(size, wrap_or_None, unpack_from, pack_into)`` for scalar types
    with a fixed-width packed byte representation, else ``None``.

    This exposes the raw pieces of :func:`scalar_accessors` so a caller
    that generates fused closures (the decode tier's superinstructions)
    can inline the bounds check and byte conversion instead of paying
    two calls per memory access.  ``wrap`` is ``None`` for floats (no
    canonicalization needed); pointer types and odd integer widths
    return ``None`` (callers fall back to the accessor closures).
    """
    if isinstance(ty, T.IntType):
        size = T.size_of(ty)
        st = _STRUCTS.get((size, True))
        if st is None:
            return None
        return size, ty.wrap, st.unpack_from, st.pack_into
    if isinstance(ty, T.FloatType):
        st = _F32 if ty.bits == 32 else _F64
        return T.size_of(ty), None, st.unpack_from, st.pack_into
    return None


def scalar_accessors(ty: T.Type) -> Tuple[Callable, Callable]:
    """Specialized ``(load, store)`` closures for one scalar IR type.

    Semantically identical to :func:`load_scalar`/:func:`store_scalar`
    (bounds checks included) but with the type dispatch and struct-format
    selection resolved once instead of per access — the decode tier binds
    these into its per-instruction closures.
    """
    if isinstance(ty, T.IntType):
        size = T.size_of(ty)
        wrap = ty.wrap
        st = _STRUCTS.get((size, True))
        if st is not None:
            unpack, pack = st.unpack_from, st.pack_into

            def load_int(pointer):
                buf, off = pointer
                buf.check(off, size)
                return wrap(unpack(buf.data, off)[0])

            def store_int(pointer, value):
                buf, off = pointer
                buf.check(off, size)
                pack(buf.data, off, wrap(value))

            return load_int, store_int
        # odd widths fall back to the generic byte path
        return (lambda p: load_scalar(ty, p),
                lambda p, v: store_scalar(ty, p, v))
    if isinstance(ty, T.FloatType):
        size = T.size_of(ty)
        st = _F32 if ty.bits == 32 else _F64
        unpack, pack = st.unpack_from, st.pack_into

        def load_float(pointer):
            buf, off = pointer
            buf.check(off, size)
            return unpack(buf.data, off)[0]

        def store_float(pointer, value):
            buf, off = pointer
            buf.check(off, size)
            pack(buf.data, off, value)

        return load_float, store_float
    if isinstance(ty, T.PointerType):
        return HANDLE_HEAP.load, HANDLE_HEAP.store
    raise TypeError(f"cannot build scalar accessors for {ty}")


class HandleHeap:
    """Side table for pointer-valued memory cells.

    Machine code stores pointers as 8 raw bytes; we instead store an index
    into this table and keep the Python object on the side, so pointers,
    function handles and opaque objects survive round-trips through memory
    without a flat address space.  The 8 stored bytes make the cell look
    pointer-sized to byte-level code (memcpy of structs containing
    pointers keeps working because the index travels with the bytes).
    """

    def __init__(self) -> None:
        self._table: list = [None]

    def store(self, pointer: Pointer, value) -> None:
        buf, off = pointer
        buf.check(off, 8)
        index = len(self._table)
        self._table.append(value)
        _STRUCTS[(8, True)].pack_into(buf.data, off, index)

    def load(self, pointer: Pointer):
        buf, off = pointer
        buf.check(off, 8)
        index = _STRUCTS[(8, True)].unpack_from(buf.data, off)[0]
        if not 0 <= index < len(self._table):
            raise MemoryError(f"corrupt pointer cell at offset {off}")
        value = self._table[index]
        if value is None and index == 0:
            return NULL
        return value

    def reset(self) -> None:
        self._table = [None]


#: process-wide handle heap (reset per ExecutionEngine)
HANDLE_HEAP = HandleHeap()


def gep_offset(pointee: T.Type, indices) -> int:
    """Byte offset of a GEP given *runtime* index values."""
    offset = indices[0] * T.size_of(pointee)
    current = pointee
    for idx in indices[1:]:
        if isinstance(current, T.ArrayType):
            offset += idx * T.size_of(current.element)
            current = current.element
        elif isinstance(current, T.StructType):
            offset += sum(T.size_of(f) for f in current.fields[:idx])
            current = current.fields[idx]
        else:
            raise TypeError(f"cannot index into {current}")
    return offset


# -- trap-raising helpers the semantics table's entries call ---------------------
#
# ``vm/semantics.py`` binds these under ``_sdiv``/``_nz``/``_fdiv``/... in
# both of its projections (the decoder's closures and the JIT's compiled
# namespace), so a trap condition has one definition.  The tree-walker
# stays on ``transform.constfold``'s folders and on ``pointer_compare``
# below: it is the oracle the table is tested against.


def sdiv(a, b):
    if b == 0:
        raise Trap("sdiv by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def srem(a, b):
    if b == 0:
        raise Trap("srem by zero")
    q = abs(a) // abs(b)
    q = -q if (a < 0) != (b < 0) else q
    return a - q * b


def nonzero(value):
    if value == 0:
        raise Trap("division by zero")
    return value


def shift_amount(amount, bits):
    if not 0 <= amount < bits:
        raise Trap(f"shift amount {amount} out of range for i{bits}")
    return amount


def fdiv(a, b):
    """fdiv with the oracle's trap semantics (fold_float_binop -> None)."""
    if b == 0.0:
        raise Trap(f"float trap in fdiv ({a}, {b})")
    return a / b


def frem(a, b):
    if b == 0.0:
        raise Trap(f"float trap in frem ({a}, {b})")
    try:
        return math.fmod(a, b)
    except (OverflowError, ValueError):
        raise Trap(f"float trap in frem ({a}, {b})") from None


def pointer_compare(predicate: str, a: Pointer, b: Pointer) -> bool:
    """Pointer equality compares identity; ordering compares offsets
    within the same buffer (cross-buffer ordering is unspecified; we
    order by buffer id for determinism)."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        ka = (id(a[0]), a[1])
        kb = (id(b[0]), b[1])
        same = a[0] is b[0] and a[1] == b[1]
    else:
        ka, kb = id(a), id(b)
        same = a is b
    return {
        "eq": same,
        "ne": not same,
        "ult": ka < kb,
        "ule": ka <= kb or same,
        "ugt": ka > kb,
        "uge": ka >= kb or same,
        "slt": ka < kb,
        "sle": ka <= kb or same,
        "sgt": ka > kb,
        "sge": ka >= kb or same,
    }[predicate]


class OutputBuffer:
    """Collects program output (the putchar/puts sink used by benchmarks)."""

    def __init__(self) -> None:
        self.chunks: list = []

    def putchar(self, byte: int) -> None:
        self.chunks.append(bytes([byte & 0xFF]))

    def write(self, data: bytes) -> None:
        self.chunks.append(bytes(data))

    def getvalue(self) -> bytes:
        return b"".join(self.chunks)

    def clear(self) -> None:
        self.chunks.clear()
