"""Runtime value representation and memory model.

The VM executes IR over these runtime values:

* integers — Python ints kept in the type's canonical signed range (a
  native's result and an ``engine.run`` argument are wrapped into it
  where they enter);
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

A pointer-typed value stored to memory becomes a *pointer cell*: the
8 bytes hold a fixed tag and the value itself sits in the buffer's
``cells`` table under the byte offset (see :func:`store_pointer`).  The
cell lives exactly as long as its buffer, and ``memcpy``/``memset``
carry or drop cells with the bytes they copy or clear.

A buffer's ``data`` bytearray is bound once, in ``__init__``, and its
length never changes.  The compiled tiers (decoded closures and JIT'd
code) read and write scalars through the buffer's typed views
(:meth:`MemoryBuffer.view`, one ``memoryview`` cast per format, made on
first use, bound by :func:`bind_view` off the fast path); :func:`free`
releases them, so a view a frame still holds faults instead of reading
freed bytes.  The tree-walker's :func:`load_scalar`/:func:`store_scalar`
are the independent oracle.  A guest memory fault is a
:class:`MemoryFault` on every tier.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
import threading
from typing import Callable, Optional, Tuple

from ..ir import types as T


class Trap(Exception):
    """Raised on undefined behaviour (division by zero, unreachable, OOB)."""


class MemoryFault(Trap):
    """A guest memory fault: an access out of its buffer's bounds, through
    a freed buffer or the null pointer, or a load of a pointer from bytes
    that are no pointer cell.  Every tier raises this one class."""


#: view format -> the IR type of its element: the compiled tiers' scalar
#: formats, in the host's native layout (``_VIEWS_FIT`` says whether
#: that is the IR's)
_VIEW_TYPES = {"q": T.i64, "i": T.i32, "h": T.i16, "b": T.i8,
               "d": T.f64, "f": T.f32}
#: view format -> item size
VIEW_SIZES = {fmt: T.size_of(ty) for fmt, ty in _VIEW_TYPES.items()}
#: a typed view is a little-endian element of the IR's width; a host
#: where it is not sends every access to the oracle's accessors
#: (:class:`_OffGrid`)
_VIEWS_FIT = sys.byteorder == "little" and all(
    struct.calcsize(fmt) == size for fmt, size in VIEW_SIZES.items())
#: makes one view at a time: at most one per buffer and format
_views_lock = threading.Lock()


class MemoryBuffer:
    """A byte-addressable allocation (heap block, stack slot or global),
    with the pointer cells stored in it (:func:`store_pointer`) and the
    typed views the compiled tiers index (:meth:`view`)."""

    # ``__dict__`` holds what :meth:`view` makes; until then the class
    # defaults answer, so an allocation pays for no view
    __slots__ = ("data", "label", "freed", "cells", "__dict__")

    #: every view made, for :func:`free` to release
    views: Tuple[memoryview, ...] = ()
    view_q = view_i = view_h = view_b = view_d = view_f = None

    def __init__(self, size: int, label: str = ""):
        self.data = bytearray(size)
        self.label = label
        self.freed = False
        #: byte offset -> the pointer-typed value stored there; ``None``
        #: until the buffer holds its first pointer cell
        self.cells: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.data)

    def check(self, offset: int, size: int) -> None:
        if self.freed:
            raise MemoryFault(f"use-after-free on buffer {self.label!r}")
        if offset < 0 or offset + size > len(self.data):
            raise MemoryFault(
                f"out-of-bounds access on {self.label!r}: "
                f"[{offset}, {offset + size}) of {len(self.data)} bytes"
            )

    def view(self, fmt: str) -> memoryview:
        """The buffer's ``memoryview`` cast to ``fmt`` (a
        :data:`VIEW_SIZES` key), made on first use and kept as
        ``view_<fmt>``, where a compiled access reads it.  It covers the
        whole elements that fit; a freed buffer's is released
        (:func:`free`)."""
        attribute = "view_" + fmt
        with _views_lock:
            view = getattr(self, attribute)
            if view is None:
                view = memoryview(self.data)
                tail = len(view) % VIEW_SIZES[fmt]
                view = (view[:-tail] if tail else view).cast(fmt)
                self.views += (view,)
                setattr(self, attribute, view)
                if self.freed:  # ``free`` may have looked before that
                    view.release()
            return view

    def write(self, offset: int, raw) -> None:
        """Overwrite ``len(raw)`` bytes at ``offset``, bounds-checked:
        the buffer's length never changes."""
        self.check(offset, len(raw))
        self.data[offset:offset + len(raw)] = raw

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MemoryBuffer {self.label!r} {len(self.data)}B>"


#: a runtime pointer: (buffer, byte offset)
Pointer = Tuple[MemoryBuffer, int]


@functools.total_ordering
class NullOffset:
    """The offset of a pointer into the null buffer.

    It adds like an int, so address arithmetic on null (a GEP) still
    yields a null-based pointer, and two null-based offsets compare.
    What reaches memory through one traps on every tier: a bounds check
    compares it with an int, a struct packer or a view index asks for
    its ``__index__``, and either raises :class:`MemoryFault`.  An offset
    of a live buffer is a plain int, so no access pays for the check.
    """

    __slots__ = ("delta",)

    def __init__(self, delta: int = 0):
        self.delta = delta

    def __add__(self, other):
        if isinstance(other, NullOffset):
            return NotImplemented
        return NullOffset(self.delta + other)

    __radd__ = __add__

    def __index__(self):
        raise MemoryFault("null pointer dereference")

    def __eq__(self, other):
        return isinstance(other, NullOffset) and other.delta == self.delta

    def __hash__(self) -> int:
        return hash((NullOffset, self.delta))

    def __lt__(self, other):
        if not isinstance(other, NullOffset):
            self.__index__()
        return self.delta < other.delta

    def __repr__(self) -> str:  # pragma: no cover
        return f"<null+{self.delta}>"


NULL: Pointer = (MemoryBuffer(0, "null"), NullOffset())


def is_null(pointer: Pointer) -> bool:
    return pointer[0] is NULL[0]


def free(pointer: Pointer) -> None:
    """The ``free`` native, and how every tier frees a buffer (an
    ``alloca``'s on return too): mark it freed and release its views, so
    a view a frame still holds faults on its next access.
    ``free(NULL)`` does nothing."""
    buf = pointer[0]
    if buf is not NULL[0]:
        buf.freed = True
        for view in buf.views:
            view.release()


#: integer size -> the ``struct`` of its little-endian signed bytes
_INTS = {1: struct.Struct("<b"), 2: struct.Struct("<h"),
         4: struct.Struct("<i"), 8: struct.Struct("<q")}
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")


def pack_f32(data, offset: int, value: float) -> None:
    """Store ``value`` as binary32: a finite value beyond its range
    becomes the infinity of its sign, as ``fptrunc`` rounds it
    (``transform.constfold.round_f32``) and a ``'f'`` view stores it;
    ``'<f'`` packing alone raises ``OverflowError`` there."""
    try:
        _F32.pack_into(data, offset, value)
    except OverflowError:
        _F32.pack_into(data, offset, math.copysign(math.inf, value))


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
    """Runtime value of a host (Python) function exposed to IR code, as
    the engine's object table holds it.  A call slot holds ``callable``
    itself, with no ``__call__`` frame between."""

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

    Buffers hold raw bytes for ints and floats; a pointer-typed value
    becomes a pointer cell (:func:`store_pointer`)."""
    buf, off = pointer
    if isinstance(ty, T.IntType):
        size = T.size_of(ty)
        buf.check(off, size)
        if size in _INTS:
            _INTS[size].pack_into(buf.data, off, ty.wrap(value))
        else:
            buf.write(off, ty.to_unsigned(value).to_bytes(size, "little"))
    elif isinstance(ty, T.FloatType):
        buf.check(off, T.size_of(ty))
        (pack_f32 if ty.bits == 32 else _F64.pack_into)(buf.data, off, value)
    elif isinstance(ty, T.PointerType):
        store_pointer(pointer, value)
    else:
        raise TypeError(f"cannot store scalar of type {ty}")


def load_scalar(ty: T.Type, pointer):
    """Load one scalar of IR type ``ty`` from ``pointer``."""
    buf, off = pointer
    if isinstance(ty, T.IntType):
        size = T.size_of(ty)
        buf.check(off, size)
        if size in _INTS:
            raw = _INTS[size].unpack_from(buf.data, off)[0]
        else:
            raw = int.from_bytes(buf.data[off:off + size], "little")
        return ty.wrap(raw)
    if isinstance(ty, T.FloatType):
        buf.check(off, T.size_of(ty))
        return (_F32 if ty.bits == 32 else _F64).unpack_from(buf.data, off)[0]
    if isinstance(ty, T.PointerType):
        return load_pointer(pointer)
    raise TypeError(f"cannot load scalar of type {ty}")


#: IR type -> the typed view (:data:`VIEW_SIZES`) the compiled tiers
#: access a scalar of it through, :data:`_VIEW_TYPES` read backwards (an
#: ``i1`` is a byte's low bit); a pointer or an odd width has none
VIEW_FORMATS = {ty: fmt for fmt, ty in _VIEW_TYPES.items()}
VIEW_FORMATS[T.i1] = "b"


#: what indexing a typed view raises: ``IndexError`` past its end,
#: ``ValueError`` once :func:`free` has released it (or for a value
#: out of the format's range, which no canonical value is)
ACCESS_ERRORS = (IndexError, ValueError)

#: the ``ValueError`` message of any access through a released view
_RELEASED = "operation forbidden on released memoryview object"


def view_fault(exc: BaseException) -> None:
    """Raise the :class:`MemoryFault`, one message on every tier that
    indexes views, for a view access that raised ``exc`` past the view's
    end or through a view :func:`free` released; return for any other
    cause, which stays the host error it is."""
    if isinstance(exc, IndexError):
        raise MemoryFault(f"out-of-bounds access: {exc}") from None
    if str(exc) == _RELEASED:
        raise MemoryFault(f"use-after-free: {exc}") from None


def negative_index() -> None:
    """Fault an access below its buffer's start, which a view would
    wrap: the one message of every tier that indexes views."""
    raise MemoryFault("out-of-bounds access: negative element index")


class _OffGrid:
    """What a bind holds instead of a view when its pointer's offset is
    off the view's element grid (negative, not a multiple of the size,
    or null), or views do not fit the host: element ``e`` is the scalar
    at ``e * size + shift``, loaded and stored by the interpreter's own
    :func:`load_scalar`/:func:`store_scalar`.  A null pointer's element
    is a :class:`NullOffset`, whose ``__index__`` faults; an offset below
    the buffer faults as a view access's negative index does."""

    __slots__ = ("buf", "ty", "size", "shift")

    def __init__(self, buf: MemoryBuffer, fmt: str, shift: int):
        self.buf, self.ty = buf, _VIEW_TYPES[fmt]
        self.size, self.shift = VIEW_SIZES[fmt], shift

    def _at(self, element) -> Pointer:
        offset = element.__index__() * self.size + self.shift
        if offset < 0:
            negative_index()
        return self.buf, offset

    def __getitem__(self, element: int):
        return load_scalar(self.ty, self._at(element))

    def __setitem__(self, element: int, value) -> None:
        store_scalar(self.ty, self._at(element), value)


def bind_view(buf: MemoryBuffer, off, fmt: str):
    """A compiled access's slow path for the pointer ``(buf, off)``:
    ``(view, index)`` such that ``view[index + k]`` is the ``fmt``
    scalar ``k`` elements past the pointer.  The view is the buffer's
    own when ``off`` is on its grid and an :class:`_OffGrid` otherwise.
    The null buffer never gets a view, so a null pointer's bind always
    comes here."""
    if not isinstance(off, int):  # a NullOffset
        return _OffGrid(buf, fmt, 0), off
    index, shift = divmod(off, VIEW_SIZES[fmt])
    if shift or index < 0 or not _VIEWS_FIT:
        return _OffGrid(buf, fmt, shift), index
    return buf.view(fmt), index


#: what the 8 bytes of a pointer cell hold: the value is in the
#: buffer's ``cells``.  Zero bytes load as null; anything else is not a
#: pointer.
_CELL_TAG = int.from_bytes(b"ptr-cell", "little", signed=True)
_I64 = _INTS[8]
#: guards a buffer's first pointer store (creating its ``cells``)
_cells_lock = threading.Lock()


def _cells_of(buf: MemoryBuffer) -> dict:
    cells = buf.cells
    if cells is None:
        with _cells_lock:
            cells = buf.cells
            if cells is None:
                cells = buf.cells = {}
    return cells


def store_pointer(pointer: Pointer, value) -> None:
    """Store a pointer-typed value (a pointer, function handle or opaque
    object) in the 8 bytes at ``pointer``: the bytes get the cell tag,
    the value goes in the buffer's ``cells`` under the offset."""
    buf, off = pointer
    data = buf.data
    if buf.freed or off < 0 or off + 8 > len(data):
        buf.check(off, 8)  # raises
    cells = buf.cells
    if cells is None:
        cells = _cells_of(buf)
    cells[off] = value
    _I64.pack_into(data, off, _CELL_TAG)


def load_pointer(pointer: Pointer):
    """Load the pointer-typed value at ``pointer``: the cell's value,
    ``NULL`` from zeroed bytes, and :class:`MemoryFault` from any other
    bytes (an integer store over a cell, say)."""
    buf, off = pointer
    data = buf.data
    if buf.freed or off < 0 or off + 8 > len(data):
        buf.check(off, 8)  # raises
    raw = _I64.unpack_from(data, off)[0]
    if raw == _CELL_TAG:
        cells = buf.cells
        if cells is not None and off in cells:
            return cells[off]
    elif raw == 0:
        return NULL
    raise MemoryFault(f"corrupt pointer cell at offset {off}")


def copy_cells(dst: Pointer, src: Pointer, n: int) -> None:
    """Give ``dst``'s ``n`` bytes the cells of ``src``'s, as a ``memcpy``
    of those bytes needs.  The copied bytes still decide what loads: a
    cell whose tag was overwritten stays unreadable."""
    (db, do), (sb, so) = dst, src
    moved = [(off - so + do, value)
             for off, value in list((sb.cells or {}).items())
             if so <= off <= so + n - 8]
    drop_cells(dst, n)
    if moved:
        _cells_of(db).update(moved)


def drop_cells(pointer: Pointer, n: int) -> None:
    """Forget the cells that start in the ``n`` bytes at ``pointer``."""
    buf, start = pointer
    cells = buf.cells
    if cells:
        for off in list(cells):
            if start <= off < start + n:
                cells.pop(off, None)


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
# namespace), so a trap condition has one definition.  An entry calls one
# only where the operation can trap: ``fdiv`` reaches ``_fdiv`` on a zero
# divisor alone, and a division by a positive constant not at all.  The
# tree-walker stays on ``transform.constfold``'s folders and on
# ``pointer_compare`` below: it is the oracle the table is tested against.


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


def fpow(a, b):
    """``pow`` as a float, or a Trap where C's ``pow`` reports an error:
    a pole (zero to a negative power), an overflow, or a domain error (a
    negative base to a non-integral power).  ``math.pow`` agrees with
    ``a ** b`` on every other input and raises on exactly these, where
    ``**`` would return a complex or raise two other classes."""
    try:
        return math.pow(a, b)
    except (ValueError, OverflowError):
        raise Trap(f"float trap in pow ({a}, {b})") from None


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
