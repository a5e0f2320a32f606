"""One table of scalar semantics.

Every integer/float binop, integer/pointer/float compare and value cast
is defined here **once**, as a Python expression over its operands
``a``/``b`` and the width constants of the instruction being lowered:

``M``      mask of the integer width the entry works at (the result type
           of a binop or cast, the operand type of a compare)
``BITS``   that width
``SM``     mask of a cast's *source* integer width
``W(x)``   two's-complement wrap of ``x`` to ``BITS`` (canonical signed
           range; ``i1`` is kept as 0/1): ``x`` itself when it is in
           range, re-biased and masked otherwise

Trap conditions are not spelled in the entries: they live in the
``vm/runtime.py`` helpers the entries call (``_sdiv``, ``_nz``,
``_shamt``, ``_fdiv``, ...), bound under the names in :data:`HELPERS`.
Compares are *truth tests*: a branch on a compare uses the entry as its
test directly, and ``1 if ... else 0`` is applied only where the ``i1``
value itself is needed.

The table has two projections and no other encoding exists in the
execution tiers (``tests/vm/test_semantics.py`` guards that):

* :func:`instantiate` — the JIT's: the entry rebuilt as ``ast`` nodes
  over caller-supplied operand nodes, width constants baked in;
* :func:`closure_factory` — the decoder's: the same instantiation filled
  into a closure-factory skeleton and compiled once per (entry, widths,
  operand shape) per process; decoding an instruction only *calls* the
  cached factory with its frame slots.

The tree-walking interpreter deliberately does not read this table.  It
stays on ``transform.constfold``'s folders — the independent encoding
the table is differential-tested against.

Not in the table, by design: loads and stores (bounds-checked in the
decoded tier, unchecked "native" accesses in the JIT — different
behaviour, not a duplicate), ``select``, calls, ``alloca`` and phi
moves (frame/namespace plumbing, not arithmetic), and the three casts
answered by the value representation or the engine's object table
(``bitcast`` is the operand itself; see :data:`OBJECT_TABLE_CASTS`).
"""

from __future__ import annotations

import ast
import linecache
import re
from functools import lru_cache, partial
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from ..ir import types as T
from ..ir.instructions import (
    BinaryInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
)
from ..ir.values import ConstantInt, Value
from ..transform.constfold import float_to_int, round_f32
from .runtime import fdiv, frem, nonzero, sdiv, shift_amount, srem

#: what the entries' free names are bound to, in the JIT's compiled
#: namespace and in every decoder closure factory's globals
HELPERS = {
    "_sdiv": sdiv,
    "_srem": srem,
    "_nz": nonzero,
    "_shamt": shift_amount,
    "_fdiv": fdiv,
    "_frem": frem,
    "_ftoi": float_to_int,
    "_f32rt": round_f32,
}

INT_BINOP = {
    "add": "W(a + b)",
    "sub": "W(a - b)",
    "mul": "W(a * b)",
    "sdiv": "W(_sdiv(a, b))",
    "srem": "W(_srem(a, b))",
    "udiv": "W((a & M) // _nz(b & M))",
    "urem": "W((a & M) % _nz(b & M))",
    "and": "W((a & M) & (b & M))",
    "or": "W((a & M) | (b & M))",
    "xor": "W((a & M) ^ (b & M))",
    "shl": "W((a & M) << _shamt(b, BITS))",
    "lshr": "W((a & M) >> _shamt(b, BITS))",
    "ashr": "W(a >> _shamt(b, BITS))",
}

FLOAT_BINOP = {
    "fadd": "a + b",
    "fsub": "a - b",
    "fmul": "a * b",
    "fdiv": "_fdiv(a, b)",
    "frem": "_frem(a, b)",
}

ICMP = {
    "eq": "a == b",
    "ne": "a != b",
    "slt": "a < b",
    "sle": "a <= b",
    "sgt": "a > b",
    "sge": "a >= b",
    "ult": "a & M < b & M",
    "ule": "a & M <= b & M",
    "ugt": "a & M > b & M",
    "uge": "a & M >= b & M",
}

#: pointer compares: ``(buffer, offset)`` pairs compare by buffer
#: identity + offset, function handles and opaque ``i8*`` objects by
#: identity; ordering across buffers is unspecified, ``id`` makes it
#: deterministic.  Signed and unsigned orderings coincide.
_PTR = "({pair}) if a.__class__ is tuple is b.__class__ else {other}"
PTR_ICMP = {
    "eq": _PTR.format(pair="a[0] is b[0] and a[1] == b[1]", other="a is b"),
    "ne": _PTR.format(pair="a[0] is not b[0] or a[1] != b[1]",
                      other="a is not b"),
}
for _pred, _op in (("lt", "<"), ("le", "<="), ("gt", ">"), ("ge", ">=")):
    PTR_ICMP["u" + _pred] = PTR_ICMP["s" + _pred] = _PTR.format(
        pair=f"(id(a[0]), a[1]) {_op} (id(b[0]), b[1])",
        other=f"id(a) {_op} id(b)",
    )

FCMP = {
    "oeq": "a == a and b == b and a == b",
    "one": "a == a and b == b and a != b",
    "olt": "a == a and b == b and a < b",
    "ole": "a == a and b == b and a <= b",
    "ogt": "a == a and b == b and a > b",
    "oge": "a == a and b == b and a >= b",
    "ord": "a == a and b == b",
    "uno": "not (a == a and b == b)",
}

#: value casts.  ``zext`` needs no wrap: the source-width mask already
#: fits the strictly wider target's signed range.  ``fptrunc`` is
#: double -> float and ``fpext`` float -> double, the only float widths.
CAST = {
    "trunc": "W(a)",
    "sext": "W(a)",
    "zext": "a & SM",
    "sitofp": "float(a)",
    "uitofp": "float(a & SM)",
    "fptosi": "W(_ftoi(a))",
    "fptoui": "W(_ftoi(a))",
    "fptrunc": "_f32rt(a)",
    "fpext": "float(a)",
}

#: the casts the engine's object table answers, by the method that does
#: (handles are per-engine, so these cannot be process-wide entries)
OBJECT_TABLE_CASTS = {"inttoptr": "resolve", "ptrtoint": "intern"}


class Entry(NamedTuple):
    """One table row bound to the widths of the instruction using it."""

    name: str                 #: e.g. ``udiv``, ``icmp.ult``, ``cast.zext``
    text: str                 #: the expression, as written in the table
    is_test: bool             #: a compare: truthy/falsy, not yet 0/1
    bits: Optional[int] = None
    src_bits: Optional[int] = None


#: ``br i1 %c`` on a plain value, and ``bitcast``: the operand itself
TRUTH = Entry("truth", "a", True)
_BITCAST = Entry("cast.bitcast", "a", False)


def _int_bits(ty: T.Type) -> Optional[int]:
    return ty.bits if isinstance(ty, T.IntType) else None


def scalar_entry(inst: Instruction) -> Optional[Entry]:
    """The row ``inst`` instantiates, or ``None`` when the table has none
    (an opcode/type mismatch, or an :data:`OBJECT_TABLE_CASTS` cast)."""
    if isinstance(inst, BinaryInst):
        bits = _int_bits(inst.type)
        table = INT_BINOP if bits else FLOAT_BINOP
        text = table.get(inst.opcode)
        return text and Entry(inst.opcode, text, False, bits)
    if isinstance(inst, ICmpInst):
        if inst.lhs.type.is_pointer:
            return Entry("ptr." + inst.predicate,
                         PTR_ICMP[inst.predicate], True)
        return Entry("icmp." + inst.predicate, ICMP[inst.predicate], True,
                     inst.lhs.type.bits)
    if isinstance(inst, FCmpInst):
        return Entry("fcmp." + inst.predicate, FCMP[inst.predicate], True)
    if isinstance(inst, CastInst):
        if inst.opcode == "bitcast":
            return _BITCAST
        text = CAST.get(inst.opcode)
        return text and Entry("cast." + inst.opcode, text, False,
                              _int_bits(inst.type),
                              _int_bits(inst.value.type))
    return None


# -- projection 1: an ``ast`` expression over caller-supplied operands -----------

#: the location every generated ``stmt``/``expr``/``arg`` node is built
#: with (here and in ``vm/jit.py``), as constructor keywords: ``compile()``
#: wants one on each, and stamping at birth is far cheaper than a walk by
#: ``ast.fix_missing_locations`` over the finished tree
LOC = {"lineno": 1, "col_offset": 0}


def _emit(node) -> str:
    """Python source that constructs a fresh copy of a parsed entry:
    operand names become calls (``a()`` yields the node for that read, so
    no node object appears twice in a result), width constants become
    literals of the builder's arguments, ``W(x)`` defers to its wrap
    argument."""
    if isinstance(node, ast.Name):
        if node.id in ("a", "b"):
            return f"{node.id}()"
        if node.id in ("M", "BITS", "SM"):
            return f"Constant({node.id}, **LOC)"
        return f"Name({node.id!r}, Load(), **LOC)"
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "W":
        return f"W({_emit(node.args[0])})"
    if isinstance(node, list):
        return "[" + ", ".join(map(_emit, node)) + "]"
    if isinstance(node, ast.AST):  # expression, operator or context
        fields = [_emit(getattr(node, f)) for f in node._fields]
        if isinstance(node, ast.expr):
            fields.append("**LOC")
        return f"{type(node).__name__}({', '.join(fields)})"
    return repr(node)  # a literal's value, an attribute's name, None


@lru_cache(maxsize=None)
def _builder(text: str) -> Callable[..., ast.expr]:
    """``build(a, b, M=, BITS=, SM=, W=)`` for one entry: as cheap per
    use as hand-written ``ast`` constructor calls."""
    source = _emit(ast.parse(text, mode="eval").body)
    return eval("lambda a, b=None, M=None, BITS=None, SM=None, W=None: "
                + source, {**vars(ast), "LOC": LOC})


def _wrap(node: ast.expr, bits: int) -> ast.expr:
    """``W(node)``: ``_t if -H <= (_t := node) <= H - 1 else
    ((_t + H) & M) - H``; ``node & 1`` for ``i1``.  The range check is
    the common case: results mostly fit, and re-biasing an ``i64`` by
    ``H`` does three operations on two-digit ints."""
    if bits == 1:
        return ast.BinOp(node, ast.BitAnd(), ast.Constant(1, **LOC), **LOC)
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    fits = ast.Compare(
        ast.Constant(-half, **LOC), [ast.LtE(), ast.LtE()],
        [ast.NamedExpr(ast.Name("_t", ast.Store(), **LOC), node, **LOC),
         ast.Constant(half - 1, **LOC)], **LOC)
    rebias = ast.BinOp(ast.Name("_t", ast.Load(), **LOC), ast.Add(),
                       ast.Constant(half, **LOC), **LOC)
    return ast.IfExp(fits, ast.Name("_t", ast.Load(), **LOC), ast.BinOp(
        ast.BinOp(rebias, ast.BitAnd(), ast.Constant(mask, **LOC), **LOC),
        ast.Sub(), ast.Constant(half, **LOC), **LOC), **LOC)


def instantiate(entry: Entry,
                reads: Sequence[Callable[[], ast.expr]]) -> ast.expr:
    """``entry``'s expression with operand ``a`` (``b``) replaced by a
    fresh ``reads[0]()`` (``reads[1]()``) node per read and the width
    constants baked in.  For an ``is_test`` entry the result is the
    truth test, not yet the 0/1 value."""
    bits, src_bits = entry.bits, entry.src_bits
    return _builder(entry.text)(
        *reads,
        M=bits and (1 << bits) - 1, BITS=bits,
        SM=src_bits and (1 << src_bits) - 1,
        W=bits and partial(_wrap, bits=bits))


# -- projection 2: closure factories for the decoded tier ------------------------


@lru_cache(maxsize=None)
def closure_factory(entry: Entry, thunks: Tuple[bool, ...],
                    edges: Optional[Tuple[bool, bool]] = None) -> Callable:
    """The decoder's closure factory for ``entry``, compiled on first use
    and cached for the life of the process (the key space is the table
    times the widths and operand shapes programs actually use).

    ``thunks[i]`` says whether operand *i* arrives as a fused producer
    thunk (called once, before anything else, so its traps keep their
    place) or as a frame slot (read inline).  With ``edges=None`` the
    factory is ``make(dst, *operands)`` and its closure computes the
    value, writes ``frame[dst]`` and returns it.  Otherwise the entry is
    a branch test: ``make(*operands, t, f)``, where ``edges`` says which
    of the two targets are phi-copying jump closures to call and which
    are bare block indices to return.
    """
    names = "ab"[:len(thunks)]
    prelude = []
    reads = []
    for name, is_thunk in zip(names, thunks):
        read = f"{name}(frame)" if is_thunk else f"frame[{name}]"
        if is_thunk or len(re.findall(rf"\b{name}\b", entry.text)) > 1:
            prelude.append(f"{name}_ = {read}")
            read = f"{name}_"
        reads.append(read)
    fn = entry.name.replace(".", "_")
    if edges is None:
        fn += "_val"
        params = ["dst", *names]
        body = [f"v = {'1 if (_E_) else 0' if entry.is_test else '_E_'}",
                "frame[dst] = v", "return v"]
    else:
        fn += "_br"
        params = [*names, "t", "f"]
        body = ["if _E_:",
                "    return t(frame)" if edges[0] else "    return t",
                "return f(frame)" if edges[1] else "return f"]
    lines = [f"def make({', '.join(params)}):", f"    def {fn}(frame):"]
    lines += ["        " + line for line in prelude + body]
    lines.append(f"    return {fn}")
    skeleton = "\n".join(lines) + "\n"

    expr = instantiate(entry, [
        (lambda read=read: ast.parse(read, mode="eval").body)
        for read in reads])
    tree = ast.parse(skeleton)
    holder = tree.body[0].body[0].body[len(prelude)]  # follows the prelude
    if edges is not None:
        holder.test = expr          # if _E_:
    elif entry.is_test:
        holder.value.test = expr    # v = 1 if (_E_) else 0
    else:
        holder.value = expr         # v = _E_
    # the expression was born on line 1; a traceback should show the
    # skeleton line it was spliced into
    ast.increment_lineno(expr, holder.lineno - 1)
    ast.fix_missing_locations(tree)

    width = f"i{entry.bits}" if entry.bits else "f"
    if entry.src_bits:
        width = f"i{entry.src_bits}-{width}"
    shape = ",".join("thunk" if t else "slot" for t in thunks)
    if edges is not None:
        shape += "/" + ",".join("jump" if e else "index" for e in edges)
    # not "<...>"-wrapped: linecache ignores lazy entries under such names
    filename = f"<semantics>/{entry.name}/{shape}/{width}"
    # source for tracebacks, unparsed only if one is ever printed
    linecache.cache[filename] = (
        lambda: skeleton.replace("_E_", ast.unparse(expr)),)
    namespace = dict(HELPERS)
    exec(compile(tree, filename, "exec"), namespace)
    return namespace["make"]


# -- address arithmetic ----------------------------------------------------------


def gep_terms(inst: GEPInst
              ) -> Optional[Tuple[int, List[Tuple[Value, int]]]]:
    """A GEP's byte offset as ``(static, [(index, stride), ...])``:
    constant indices folded into ``static``, each remaining index value
    scaled by its element stride.  ``None`` when the walk cannot be done
    statically (a non-constant struct index, or indexing into a
    non-aggregate)."""
    pointee = inst.pointer.type.pointee
    static = 0
    terms: List[Tuple[Value, int]] = []
    current = pointee
    for position, index in enumerate(inst.indices):
        if position == 0:
            stride = T.size_of(pointee)
        elif isinstance(current, T.ArrayType):
            stride = T.size_of(current.element)
            current = current.element
        elif (isinstance(current, T.StructType)
                and isinstance(index, ConstantInt)):
            static += sum(T.size_of(f) for f in current.fields[:index.value])
            current = current.fields[index.value]
            continue
        else:
            return None
        if isinstance(index, ConstantInt):
            static += index.value * stride
        else:
            terms.append((index, stride))
    return static, terms
