"""JIT tier: compile IR functions to Python functions.

The MCJIT substitute's "native code" is generated Python, built as an
``ast.Module`` and handed straight to :func:`compile`: SSA values are
locals, phi nodes parallel tuple assignments on the CFG edges, and
binops, compares and casts come from ``vm/semantics.py`` (the decoded
tier's table too), so results match the interpreter exactly.  Source is
unparsed only on demand (``__ir_source__``); direct calls go through
lazy trampolines (MCJIT's compile-on-first-call).

Codegen is engine-independent, deterministic and cached.  A
:class:`CompiledCode` is a code object plus *binding descriptors* naming
the engine resources each namespace slot needs; it is cached on the
function under its ``code_version``/``code_shape`` stamp, so another
engine or a repeated warm-up only pays :meth:`CompiledCode.instantiate`.
Codegen never touches the engine, which lets one caller thread run
:func:`acquire_artifact` while others keep executing; a module-level
lock publishes each function's artifact atomically.

Control flow is *structured* (:meth:`FunctionCompiler._place`): one
recursive walk over the dominator tree and the loop forest.  A loop
header opens a ``while True:``, a merge block follows the ``if`` of its
immediate dominator, a ``br i1`` is an ``if``/``else`` and a ``switch``
an ``if``/``elif`` chain in case order (the first match wins).  Each
edge is its phi moves, then the first of these rules that fits:

=================================  ======================================
the edge goes to                   emitted as
=================================  ======================================
the block laid out next            nothing: it falls through
the innermost loop's header        ``continue``, or the end of the body
a block it alone enters            that block, in place (outside the loop
                                   only if no branch is left to take)
a block outside the loop           ``break``; exit *k* > 0 first sets
                                   ``_x<nesting> = k``, which an ``if``
                                   chain after the ``while`` reads
a block that leaves only by        that block again, in place
``ret``, ``unreachable`` or
``continue``
=================================  ======================================

A cycle that is not a natural loop (a continuation entering a loop nest
mid-way, McOSR's restore edge) is first split on a codegen-private copy
(:meth:`FunctionCompiler._split`).  What is left -- a jump past a merge
that still branches, and the two nesting caps that keep CPython's block
limit away -- raises :class:`_Unstructured`: :func:`compile_function`
reports ``jit.fallback`` and returns the engine's tree-walker instead.
"""

from __future__ import annotations

import ast
import marshal
import re
import threading
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..ir import types as T
from ..ir.constexpr import ConstantIntToPtr
from ..ir.function import BasicBlock, Function, Module
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    IndirectCallInst,
    Instruction,
    LoadInst,
    RetInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from ..ir.values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
    UndefValue,
    Value,
)
from ..analysis.manager import AnalysisManager, default_manager
from ..obs import events as EV
from ..obs.telemetry import ambient as ambient_telemetry
from .runtime import (
    ACCESS_ERRORS,
    NULL,
    VIEW_FORMATS,
    VIEW_SIZES,
    MemoryBuffer,
    Trap,
    bind_view,
    load_pointer,
    load_scalar,
    negative_index,
    store_pointer,
    store_scalar,
    view_fault,
)
from .semantics import LOC as _LOC
from .semantics import (
    HELPERS,
    OBJECT_TABLE_CASTS,
    gep_terms,
    instantiate,
    native_result,
    scalar_entry,
)


class JITError(Exception):
    """Raised when a function cannot be lowered to Python."""


class UnserializableArtifact(JITError):
    """Raised when a :class:`CompiledCode` cannot be marshaled to the
    process-independent disk format (e.g. it bakes engine-session object
    handles in).  The message names every offending binding."""


class ArtifactFormatError(JITError):
    """Raised when serialized artifact bytes are corrupt, truncated, or
    written by an incompatible format/interpreter version."""


_NAME_RE = re.compile(r"[^0-9A-Za-z_]")


def _memory_fault(exc: BaseException) -> None:
    """Raise a :class:`MemoryFault` for ``exc`` when the JIT frame that
    caught it raised it itself, indexing a view: a view's ``IndexError``
    (out of bounds) or a released view's ``ValueError`` (freed).  The
    same classes from a native, from a callee's frame or for a value out
    of the view's range stay host errors, and so return."""
    tb = exc.__traceback__
    if tb is None or tb.tb_next is not None:
        return
    from opcode import opmap

    op = tb.tb_frame.f_code.co_code[tb.tb_lasti]
    if op in (opmap["BINARY_SUBSCR"], opmap["STORE_SUBSCR"]):
        view_fault(exc)


def _build_static_namespace() -> Dict[str, Any]:
    return dict(
        HELPERS,
        _null=NULL,
        _nan=float("nan"),
        _inf=float("inf"),
        _Trap=Trap,
        _MemoryBuffer=MemoryBuffer,
        _cell_load=load_pointer,
        _cell_store=store_pointer,
        _load_scalar=load_scalar,
        _store_scalar=store_scalar,
        _bind_view=bind_view,
        _ACCESS_ERRORS=ACCESS_ERRORS,
        _memory_fault=_memory_fault,
        _oob=negative_index,
    )


#: engine-independent namespace entries, built once at import instead of
#: per compile — instantiation copies this dict
_STATIC_NS = _build_static_namespace()

#: cap on the layout's recursion depth (guards generated-AST nesting;
#: straight-line ``br`` chains do not add nesting and are cheap)
_MAX_CHAIN_DEPTH = 40

#: cap on nested ``while``s: CPython refuses 20 statically nested blocks
_MAX_WHILE_NESTING = 15


# -- AST node constructors -----------------------------------------------------
#
# Context singletons are shared (they carry no state and no locations);
# every other node is built fresh so no node object appears twice in one
# tree.  Every ``stmt``/``expr``/``arg`` is born with the one location
# ``compile()`` asks for (``_LOC``, line 1 column 0): filling it in with
# a walk of the finished tree costs seven times as much per node.

_LOAD = ast.Load()
_STORE = ast.Store()


def _name(ident: str, ctx: ast.expr_context = _LOAD) -> ast.Name:
    return ast.Name(id=ident, ctx=ctx, **_LOC)


def _const(value) -> ast.Constant:
    return ast.Constant(value=value, **_LOC)


def _call(func: ast.expr, *args: ast.expr) -> ast.Call:
    return ast.Call(func=func, args=list(args), keywords=[], **_LOC)


def _calln(fname: str, *args: ast.expr) -> ast.Call:
    return _call(_name(fname), *args)


def _assign(target: Union[str, ast.expr], value: ast.expr) -> ast.Assign:
    """``target = value``; a string names a local."""
    if isinstance(target, str):
        target = _name(target, _STORE)
    return ast.Assign(targets=[target], value=value, **_LOC)


def _expr_stmt(value: ast.expr) -> ast.Expr:
    return ast.Expr(value=value, **_LOC)


def _raise_trap(message: str) -> ast.Raise:
    return ast.Raise(exc=_calln("_Trap", _const(message)), cause=None,
                     **_LOC)


def _subscript(value: ast.expr, index: ast.expr,
               ctx: ast.expr_context = _LOAD) -> ast.Subscript:
    return ast.Subscript(value=value, slice=index, ctx=ctx, **_LOC)


def _item(value: ast.expr, index: int) -> ast.Subscript:
    return _subscript(value, _const(index))


def _attr(value: ast.expr, attribute: str) -> ast.Attribute:
    return ast.Attribute(value=value, attr=attribute, ctx=_LOAD, **_LOC)


def _bin(left: ast.expr, op: ast.operator, right: ast.expr) -> ast.BinOp:
    return ast.BinOp(left=left, op=op, right=right, **_LOC)


def _cmp(left: ast.expr, op: ast.cmpop, right: ast.expr) -> ast.Compare:
    return ast.Compare(left=left, ops=[op], comparators=[right], **_LOC)


def _unary(op: ast.unaryop, value: ast.expr) -> ast.UnaryOp:
    return ast.UnaryOp(op=op, operand=value, **_LOC)


def _not(value: ast.expr) -> ast.UnaryOp:
    return _unary(ast.Not(), value)


def _ifexp(test: ast.expr, body: ast.expr, orelse: ast.expr) -> ast.IfExp:
    return ast.IfExp(test=test, body=body, orelse=orelse, **_LOC)


def _bool01(test: ast.expr) -> ast.IfExp:
    """``1 if test else 0`` — IR i1 results are Python ints."""
    return _ifexp(test, _const(1), _const(0))


def _tuple(*elts: ast.expr, ctx: ast.expr_context = _LOAD) -> ast.Tuple:
    return ast.Tuple(elts=list(elts), ctx=ctx, **_LOC)


def _if(test: ast.expr, body: List[ast.stmt],
        orelse: Sequence[ast.stmt] = ()) -> ast.If:
    return ast.If(test=test, body=body, orelse=list(orelse), **_LOC)


def _if_chain(arms: Sequence[Tuple[ast.expr, List[ast.stmt]]],
              default: List[ast.stmt]) -> List[ast.stmt]:
    """``if``/``elif`` over ``(test, body)`` arms, ``default`` last; an
    arm with nothing to do negates its test instead of holding a
    ``pass``."""
    chain = default
    for test, body in reversed(arms):
        if not body:
            test, body, chain = _not(test), chain, []
        if body:
            chain = [_if(test, body, chain)]
    return chain


def _while_true(body: List[ast.stmt]) -> ast.While:
    return ast.While(test=_const(True), body=body, orelse=[], **_LOC)


def _return(value: ast.expr) -> ast.Return:
    return ast.Return(value=value, **_LOC)


def _continue() -> ast.Continue:
    return ast.Continue(**_LOC)


class _Unstructured(JITError):
    """Control flow the structured emitter cannot nest; the message says
    what.  :func:`compile_function` runs the function on the
    tree-walker instead."""


class _While:
    """A ``while True:`` being filled in: its natural loop, and the blocks
    outside it that a ``break`` reaches, in the order first met."""

    __slots__ = ("header", "blocks", "exits", "nesting", "selector")

    def __init__(self, natural, outer: Optional["_While"]):
        self.header = natural.header
        self.blocks = natural.blocks
        #: exit block -> how many of its incoming edges became a ``break``
        self.exits: Dict[BasicBlock, int] = {}
        self.nesting = outer.nesting + 1 if outer is not None else 1
        if self.nesting > _MAX_WHILE_NESTING:
            raise _Unstructured("loops nested too deep")
        #: the local that says which exit a ``break`` took
        self.selector = f"_x{self.nesting}"

    def break_to(self, target: BasicBlock, arrived: int) -> List[ast.stmt]:
        """``break`` for ``arrived`` edges to ``target``, after setting
        the selector when ``target`` is not the loop's first exit."""
        exits = self.exits
        index = list(exits).index(target) if target in exits else len(exits)
        exits[target] = exits.get(target, 0) + arrived
        select = [_assign(self.selector, _const(index))] if index else []
        return select + [ast.Break(**_LOC)]


def _reducible(entry: BasicBlock, loops) -> bool:
    """Are the forward edges -- every edge but a natural loop's back
    edge -- acyclic?  Then every cycle is a natural loop."""
    back = {(latch, loop.header) for loop in loops for latch in loop.latches}
    on_path = {entry: True}  # a depth-first walk; False once finished
    stack = [(entry, iter(entry.successors()))]
    while stack:
        block, successors = stack[-1]
        for succ in successors:
            if (block, succ) in back or on_path.get(succ) is False:
                continue
            if succ in on_path:
                return False
            on_path[succ] = True
            stack.append((succ, iter(succ.successors())))
            break
        else:
            on_path[stack.pop()[0]] = False
    return True


def _reduce(blocks: List[BasicBlock]) -> Tuple[
        Dict[BasicBlock, BasicBlock], Dict[BasicBlock, List[BasicBlock]]]:
    """T1/T2-reduce the graph of ``blocks`` (entry first, all reachable):
    ignore a region's edges to itself, and merge a region that one other
    region alone enters into that one.  Returns each block's region
    header and, per remaining region in layout order, the regions that
    enter it; one region left means the graph is reducible."""
    head = {block: block for block in blocks}

    def find(block: BasicBlock) -> BasicBlock:
        while head[block] is not block:
            block = head[block]
        return block

    while True:
        entering: Dict[BasicBlock, List[BasicBlock]] = {
            block: [] for block in blocks if head[block] is block}
        for block in blocks:
            source = find(block)
            for succ in block.successors():
                region = find(succ)
                if region is not source and source not in entering[region]:
                    entering[region].append(source)
        merged = False
        for region, sources in entering.items():
            if len(sources) == 1 and region is not blocks[0]:
                head[region] = sources[0]
                merged = True
        if not merged:
            return {block: find(block) for block in blocks}, entering


class CompiledCode:
    """Engine-independent compiled artifact for one function version.

    Cached on ``Function._cached_code``; per-engine callables are minted
    with :meth:`instantiate`, which resolves the binding descriptors
    against that engine and ``exec``'s the pre-compiled code object.

    The artifact stores no source text.  :attr:`source` regenerates it
    lazily (deterministic re-lower + ``ast.unparse``) and caches the
    string; it reflects the function body the artifact was compiled
    from only while :meth:`matches` holds.
    """

    __slots__ = ("code", "py_name", "bindings", "version", "shape",
                 "_source_hook", "_source")

    def __init__(self, code, py_name: str, bindings: Dict[str, Tuple],
                 version: int, shape: Tuple[int, int],
                 source_hook: Optional[Callable[[], str]] = None):
        self.code = code
        self.py_name = py_name
        self.bindings = bindings
        self.version = version
        self.shape = shape
        self._source_hook = source_hook
        self._source: Optional[str] = None

    def matches(self, func: Function) -> bool:
        # same body-level stamp the analysis cache validates against
        from ..analysis.manager import GRANULARITY_BODY, analysis_stamp

        return (self.version == func.code_version
                and self.shape == analysis_stamp(func, GRANULARITY_BODY))

    @property
    def source(self) -> str:
        """Debugging source, unparsed on first access and cached."""
        text = self._source
        if text is None:
            hook = self._source_hook
            text = hook() if hook is not None else ""
            self._source = text
        return text

    def ir_source(self) -> str:
        """On-demand debugging source (the ``__ir_source__`` callable)."""
        return self.source

    def instantiate(self, engine, func: Function):
        """Bind this code (``func``'s) to ``engine`` and return the
        callable."""
        namespace = dict(_STATIC_NS)
        for name, descriptor in self.bindings.items():
            kind = descriptor[0]
            if kind == "static":
                namespace[name] = descriptor[1]
            elif kind == "handle":
                namespace[name] = engine.handle_for(descriptor[1])
            elif kind == "global":
                namespace[name] = engine.global_pointer(descriptor[1])
            elif kind == "resolve":
                namespace[name] = engine.object_table.resolve(descriptor[1])
            elif kind == "objtab":
                namespace[name] = engine.object_table
            elif kind == "trampoline":
                namespace[name] = engine.lazy_trampoline(
                    descriptor[1], namespace, name, func.name
                )
            else:  # pragma: no cover
                raise JITError(f"unknown binding kind {kind!r}")
        exec(self.code, namespace)
        compiled = namespace[self.py_name]
        compiled.__ir_source__ = self.ir_source
        compiled.__ir_artifact__ = self
        return compiled


# -- artifact (de)serialization ------------------------------------------------
#
# A CompiledCode is already engine-independent; these hooks make it
# *process*-independent: the code object marshals as-is, and every
# binding descriptor is rewritten into a marshal-safe form that a fresh
# process can re-resolve against its own parse of the module (functions
# and globals by name, IR types structurally).  The one thing that can
# never cross a process boundary is an interned object-table handle — a
# ``("resolve", n)`` descriptor bakes a session-specific integer into
# the code, so artifacts carrying one (OSR stubs) are refused.

#: bump whenever the payload layout, the binding encoding or the code
#: generated for an IR body changes (the disk cache keys on IR, so a warm
#: cache would keep serving the old code); part of both the disk-cache
#: key and the embedded payload, so old entries are rejected instead of
#: misread
DISK_FORMAT_VERSION = 8

#: marshal data version 2: versions >= 3 emit identity-based
#: back-references for repeated objects, making the byte stream depend
#: on the process's string-interning history; version 2 is pure content,
#: which the cross-process determinism regression pins
_MARSHAL_VERSION = 2


def audit_bindings(bindings: Dict[str, Tuple]) -> None:
    """Fail fast if any binding descriptor cannot cross a process.

    Raises :class:`UnserializableArtifact` naming every offending slot —
    this is the guard that keeps the disk format from silently drifting
    when a new binding kind (or a non-marshalable static value) is
    introduced.
    """
    problems: List[str] = []
    for name, descriptor in bindings.items():
        kind = descriptor[0]
        if kind == "static":
            value = descriptor[1]
            if isinstance(value, (T.IntType, T.FloatType)):
                continue  # encoded structurally
            try:
                marshal.dumps(value, _MARSHAL_VERSION)
            except (ValueError, TypeError):
                problems.append(
                    f"{name}: static value of type "
                    f"{type(value).__name__} is not marshalable"
                )
        elif kind in ("handle", "trampoline"):
            if not isinstance(descriptor[1], Function):
                problems.append(
                    f"{name}: {kind} target is not an IR Function"
                )
        elif kind == "global":
            if not isinstance(descriptor[1], GlobalVariable):
                problems.append(
                    f"{name}: global target is not a GlobalVariable"
                )
        elif kind == "resolve":
            problems.append(
                f"{name}: bakes engine-session object-table handle "
                f"{descriptor[1]!r} (OSR stub artifacts are per-process)"
            )
        elif kind != "objtab":
            problems.append(f"{name}: unknown binding kind {kind!r}")
    if problems:
        raise UnserializableArtifact(
            "artifact cannot be serialized: " + "; ".join(problems)
        )


def _encode_binding(descriptor: Tuple) -> Tuple:
    kind = descriptor[0]
    if kind == "static":
        value = descriptor[1]
        if isinstance(value, T.IntType):
            return ("itype", value.bits)
        if isinstance(value, T.FloatType):
            return ("ftype", value.bits)
        return ("static", value)
    if kind in ("handle", "trampoline", "global"):
        return (kind, descriptor[1].name)
    # objtab carries no payload
    return (kind,)


def _decode_binding(encoded: Tuple, module: Module) -> Tuple:
    kind = encoded[0]
    if kind == "itype":
        return ("static", T.int_type(encoded[1]))
    if kind == "ftype":
        return ("static", T.f32 if encoded[1] == 32 else T.f64)
    if kind == "static":
        return ("static", encoded[1])
    if kind in ("handle", "trampoline"):
        return (kind, module.get_function(encoded[1]))
    if kind == "global":
        return (kind, module.get_global(encoded[1]))
    if kind == "objtab":
        return (kind,)
    raise ArtifactFormatError(f"unknown serialized binding kind {kind!r}")


def serialize_artifact(func: Function, artifact: CompiledCode) -> bytes:
    """Marshal ``artifact`` to engine- and process-independent bytes.

    Deterministic: the same IR body always yields byte-identical output
    (codegen is deterministic, bindings keep insertion order, and
    ``marshal`` is content-addressed), which the determinism regression
    test pins across fresh processes.

    Raises :class:`UnserializableArtifact` for artifacts that bake
    session state in (see :func:`audit_bindings`).
    """
    audit_bindings(artifact.bindings)
    payload = {
        "format": DISK_FORMAT_VERSION,
        "function": func.name,
        "py_name": artifact.py_name,
        "version": artifact.version,
        "shape": tuple(artifact.shape),
        "bindings": [
            (name, _encode_binding(descriptor))
            for name, descriptor in artifact.bindings.items()
        ],
        "code": artifact.code,
    }
    return marshal.dumps(payload, _MARSHAL_VERSION)


def deserialize_artifact(data: bytes, module: Module) -> CompiledCode:
    """Rebuild a :class:`CompiledCode` from :func:`serialize_artifact`
    bytes, re-resolving name references against ``module``.

    Raises :class:`ArtifactFormatError` on corrupt or version-skewed
    bytes, and when a referenced function or global no longer exists in
    the module — callers (the disk cache) treat every failure as a cache
    miss and fall back to recompiling.
    """
    try:
        payload = marshal.loads(data)
    except (ValueError, EOFError, TypeError) as error:
        raise ArtifactFormatError(f"unreadable artifact: {error}") from None
    if not isinstance(payload, dict):
        raise ArtifactFormatError("artifact payload is not a dict")
    if payload.get("format") != DISK_FORMAT_VERSION:
        raise ArtifactFormatError(
            f"format version {payload.get('format')!r} != "
            f"{DISK_FORMAT_VERSION}"
        )
    try:
        bindings = {
            name: _decode_binding(tuple(encoded), module)
            for name, encoded in payload["bindings"]
        }
        code = payload["code"]
        py_name = payload["py_name"]
        version = payload["version"]
        shape = tuple(payload["shape"])
        function_name = payload["function"]
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise ArtifactFormatError(f"malformed payload: {error}") from None
    source_hook = None
    if module.has_function(function_name):
        source_hook = _make_source_hook(module.get_function(function_name))
    return CompiledCode(code, py_name, bindings, version, shape,
                        source_hook=source_hook)


class FunctionCompiler:
    """Compiles one IR function to a :class:`CompiledCode` artifact.

    Code generation never touches the engine: engine resources are
    recorded as binding descriptors and resolved at instantiation time,
    which is what makes the artifact reusable across engines.  The
    lowering builds :mod:`ast` nodes directly; :meth:`build_tree`
    returns the finished ``ast.Module`` (the artifact's source hook
    unparses it on demand).
    """

    def __init__(self, func: Function):
        self.func = func
        self.bindings: Dict[str, Tuple] = {}
        self._value_names: Dict[int, str] = {}
        #: a split copy's value -> the original whose Python name it takes
        self._alias: Dict[Value, Value] = {}
        self._name_counter = 0
        self._const_counter = 0
        self._folded: set = set()
        #: pointer values whose parts live in ``<name>_b``/``_o`` locals
        #: -> the view formats its accesses index (:meth:`_bind_view`)
        self._addressed: Dict[int, set] = {}
        #: the addressed globals, bound once on entry
        self._globals: List[GlobalVariable] = []
        #: a load's or store's view access: ``(base pointer, format,
        #: static bytes, [(index, stride bytes), ...])``
        self._plans: Dict[int, Tuple] = {}
        #: the function's range facts; ``None`` for a split copy
        self._ranges = None

    # -- naming ------------------------------------------------------------------

    def _fresh(self, hint: str) -> str:
        self._name_counter += 1
        clean = _NAME_RE.sub("_", hint) or "v"
        return f"v{self._name_counter}_{clean}"

    def name_of(self, value: Value) -> str:
        value = self._alias.get(value, value)
        key = id(value)
        if key not in self._value_names:
            self._value_names[key] = self._fresh(value.name)
        return self._value_names[key]

    def bind(self, descriptor: Tuple, hint: str) -> str:
        """Record a binding descriptor; return its namespace name."""
        self._const_counter += 1
        name = f"_k{self._const_counter}_{_NAME_RE.sub('_', hint)}"
        self.bindings[name] = descriptor
        return name

    # -- operand expressions -------------------------------------------------------

    def expr(self, value: Value) -> ast.expr:
        if isinstance(value, ConstantInt):
            return _const(value.value)
        if isinstance(value, ConstantFloat):
            v = value.value
            if v != v:
                return _name("_nan")
            if v in (float("inf"), float("-inf")):
                if v > 0:
                    return _name("_inf")
                return _unary(ast.USub(), _name("_inf"))
            return _const(v)
        if isinstance(value, ConstantNull):
            return _name("_null")
        if isinstance(value, UndefValue):
            if value.type.is_float:
                return _const(0.0)
            if value.type.is_pointer:
                return _name("_null")
            return _const(0)
        if isinstance(value, ConstantIntToPtr):
            return _name(self.bind(("resolve", value.value),
                                   f"obj{value.value}"))
        if isinstance(value, Function):
            return _name(self.bind(("handle", value), value.name))
        if isinstance(value, GlobalVariable):
            return _name(self.bind(("global", value), value.name))
        if isinstance(value, (Argument, Instruction)):
            if id(value) in self._folded:  # an access that wants the pair
                return _tuple(*self._gep_address(value))
            return _name(self.name_of(value))
        raise JITError(f"cannot lower operand {value!r}")

    def _objtab(self) -> str:
        self.bindings.setdefault("_objtab", ("objtab",))
        return "_objtab"

    # -- top level -----------------------------------------------------------------------

    def compile(self) -> CompiledCode:
        func = self.func
        tree = self.build_tree()
        code = compile(tree, f"<jit:@{func.name}>", "exec")
        return CompiledCode(
            code, self._py_name(), self.bindings,
            func.code_version, func.code_shape(),
            source_hook=_make_source_hook(func),
        )

    def build_tree(self) -> ast.Module:
        """Lower the function to a ready-to-``compile`` ``ast.Module``.
        Raises :class:`_Unstructured` for control flow it cannot nest."""
        func = self.func
        if func.is_declaration:
            raise JITError(f"cannot compile declaration @{func.name}")
        func.assign_names()
        self._folded = self._foldable_geps()
        body = self._structured_body()
        body[:0] = [stmt for value in [*func.args, *self._globals]
                    if id(value) in self._addressed
                    for stmt in self._bind_parts(value)]
        if self._plans:
            body = [self._mapping_faults(body)]

        fn = ast.FunctionDef(
            name=self._py_name(),
            args=ast.arguments(
                posonlyargs=[], args=[ast.arg(arg=self.name_of(a), **_LOC)
                                      for a in func.args],
                vararg=None, kwonlyargs=[], kw_defaults=[], kwarg=None,
                defaults=[],
            ),
            body=body,
            decorator_list=[],
            returns=None,
            **_LOC,
        )
        fn.type_params = []  # required by compile() on 3.12+, ignored before
        return ast.Module(body=[fn], type_ignores=[])

    def _py_name(self) -> str:
        return "_jit_" + _NAME_RE.sub("_", self.func.name)

    # -- structured control flow ---------------------------------------------------------

    def _structured_body(self) -> List[ast.stmt]:
        """The function as nested ``while True:``/``if`` statements, laid
        out over the dominator tree and the loop forest -- of a split
        copy when some cycle is not a natural loop."""
        func = self.func
        analyses = default_manager()
        loops = analyses.loop_info(func).loops
        if _reducible(func.entry, loops):
            self._ranges = analyses.range_facts(func)
            return self._layout(func, analyses.dominator_tree(func), loops)
        # no range facts here: a copy and its original share one local,
        # so a value's dominating compare may not have seen its last write
        copy = self._split()
        private = AnalysisManager(max_functions=1)  # nothing outlives it
        try:
            return self._layout(copy, private.dominator_tree(copy),
                                private.loop_info(copy).loops)
        finally:  # unhook the copy from values the module shares with it
            for inst in copy.instructions():
                inst.drop_all_references()

    def _layout(self, func: Function, domtree, loops) -> List[ast.stmt]:
        self._dom_children = domtree.children
        self._loops = {id(loop.header): loop for loop in loops}
        self._placed: set = set()
        # incoming forward edges per block (a ``br i1`` with both targets
        # equal counts twice); ``latches`` names a block per back edge
        forward = self._forward = {id(block): 0 for block in func.blocks}
        for block in func.blocks:
            for succ in block.successors():
                forward[id(succ)] += 1
        for loop in loops:
            forward[id(loop.header)] -= len(loop.latches)
        return self._place(func.entry, None, None, 0)

    def _split(self) -> Function:
        """A codegen-private copy of the function whose every cycle is a
        natural loop: while T1/T2 reduction is stuck, copy the lightest
        region once per extra region entering it.  Copies take their
        original's Python name: locals are not SSA, so no phi repair."""
        from ..analysis.cfg import remove_unreachable_blocks
        from ..transform.clone import ValueMap, clone_blocks

        func = self.func
        copy = Function(func.function_type, func.name,
                        [arg.name for arg in func.args])
        vmap = ValueMap(zip(func.args, copy.args))
        clone_blocks(func.blocks, vmap, copy)
        remove_unreachable_blocks(copy)
        alias = self._alias
        alias.update((new, old) for old, new in vmap.items())
        while True:
            blocks = copy.blocks
            head, entering = _reduce(blocks)
            if len(entering) == 1:
                break
            weight = {region: 0 for region in entering}
            for block in blocks:
                weight[head[block]] += len(block)
            region = min((r for r in entering if r is not blocks[0]),
                         key=weight.__getitem__)
            members = [b for b in blocks if head[b] is region]
            for source in entering[region][1:]:
                rmap = ValueMap()
                clone_blocks(members, rmap, copy)
                twin = rmap[region]
                for block in blocks:
                    if head[block] is source and region in block.successors():
                        block.terminator.replace_successor(region, twin)
                        for phi, twin_phi in zip(region.phis, twin.phis):
                            twin_phi.add_incoming(
                                phi.incoming_value_for(block), block)
                for block in members:
                    for succ in dict.fromkeys(block.successors()):
                        if succ not in rmap:
                            for phi in succ.phis:
                                phi.add_incoming(rmap.lookup(
                                    phi.incoming_value_for(block)),
                                    rmap[block])
                alias.update((new, alias.get(old, old))
                             for old, new in rmap.items())
        folded, addressed = self._folded, self._addressed
        for new, old in alias.items():
            if id(old) in folded:
                folded.add(id(new))
            if id(old) in addressed:
                addressed[id(new)] = addressed[id(old)]
        return copy

    def _place(self, block: BasicBlock, follow: Optional[BasicBlock],
               loop: Optional[_While], depth: int,
               opened: bool = False) -> List[ast.stmt]:
        """``block``, then in sequence the blocks that must come right
        after it: a ``br`` target nothing else reaches, the merge blocks
        it immediately dominates, the exit of a loop it heads.  Falling
        off the end of the result reaches ``follow``; ``loop`` is the
        innermost ``while`` the result sits in.  ``opened`` says
        ``block`` heads that loop and this is its body."""
        if depth > _MAX_CHAIN_DEPTH:
            raise _Unstructured("nested deeper than the chain cap")
        out: List[ast.stmt] = []
        stack = [block]
        while stack:
            block = stack.pop()
            natural = self._loops.get(id(block))
            if natural is not None and not opened:
                after = stack[-1] if stack else follow
                inner = _While(natural, loop)
                body = self._place(block, block, inner, depth + 1, True)
                exits = list(inner.exits.items())
                if len(exits) > 1:
                    out.append(_assign(inner.selector, _const(0)))
                out.append(_while_true(body))
                if len(exits) == 1:  # none: only ``ret`` leaves it
                    (target, breaks), = exits
                    out.extend(self._transfer(target, after, loop, breaks,
                                              stack, depth))
                elif exits:
                    arms = [(_cmp(_name(inner.selector), ast.Eq(),
                                  _const(index)),
                             self._transfer(target, after, loop, breaks,
                                            None, depth))
                            for index, (target, breaks) in enumerate(exits)]
                    out.extend(_if_chain(arms[1:], arms[0][1]))
                continue
            opened = False
            term = block.terminator
            if term is None or id(block) in self._placed:
                raise JITError(f"%{block.name} cannot be placed")
            self._placed.add(id(block))
            stack.extend(reversed([
                child for child in self._dom_children.get(block, ())
                if self._forward[id(child)] > 1
                and (loop is None or child in loop.blocks)]))
            after = stack[-1] if stack else follow
            out.extend(self._straight_line(block))
            out.extend(self._exits(block, after, loop, depth, stack))
        return out

    def _exits(self, block: BasicBlock, follow: Optional[BasicBlock],
               loop: Optional[_While], depth: int,
               stack: Optional[List[BasicBlock]] = None) -> List[ast.stmt]:
        """``block``'s terminator: each edge is its phi moves, then its
        :meth:`_transfer`."""
        def edge(target, stack=None):
            return (self._phi_moves(block, target)
                    + self._transfer(target, follow, loop, 1, stack, depth))

        term = block.terminator
        if isinstance(term, BranchInst):
            return edge(term.target, stack)
        if isinstance(term, CondBranchInst):
            test = self._branch_test(term)
            body, orelse = (edge(target) for target in term.successors())
            return _if_chain([(test, body)], orelse)
        if isinstance(term, SwitchInst):
            arms = [(_cmp(self.expr(term.value), ast.Eq(), self.expr(case)),
                     edge(target)) for case, target in term.cases]
            return _if_chain(arms, edge(term.default))
        return self._compile_instruction(term)  # ret, unreachable

    def _transfer(self, target: BasicBlock, follow: Optional[BasicBlock],
                  loop: Optional[_While], arrived: int,
                  stack: Optional[List[BasicBlock]],
                  depth: int) -> List[ast.stmt]:
        """The statements that take control to ``target`` from a point
        where ``arrived`` of its forward edges end: nothing, ``continue``,
        ``target`` itself (next on ``stack`` when the caller lays out a
        sequence), ``break``, or ``target`` again when its only edges are
        back edges to the loop's header.  Every edge is checked to reach
        its own target: a stale analysis can cost the structured form,
        not correctness."""
        if target is follow:
            return []
        if loop is not None and target is loop.header:
            return [_continue()]
        leaves = loop is not None and target not in loop.blocks
        if (self._forward[id(target)] == arrived
                and id(target) not in self._placed
                and not (leaves and len(target.successors()) > 1)):
            if stack is None:
                return self._place(target, follow, loop, depth + 1)
            stack.append(target)
            return []
        if leaves:
            return loop.break_to(target, arrived)
        if all(loop is not None and succ is loop.header
               for succ in target.successors()):
            # it leaves by ``return``, ``raise`` or ``continue``: bounded
            return (self._straight_line(target)
                    + self._exits(target, follow, loop, depth))
        raise _Unstructured(
            f"jump past a merge: %{target.name} still branches")

    # -- blocks -------------------------------------------------------------------------

    def _straight_line(self, block: BasicBlock) -> List[ast.stmt]:
        """``block`` between its phis and its terminator, its phis'
        pointer parts first."""
        out: List[ast.stmt] = []
        addressed = self._addressed
        instructions = block.instructions
        first = block.first_non_phi_index
        for phi in instructions[:first]:
            if id(phi) in addressed:
                out.extend(self._bind_parts(phi))
        for inst in instructions[first:-1]:
            out.extend(self._compile_instruction(inst))
            if id(inst) in addressed:
                out.extend(self._bind_parts(inst))
        return out

    def _phi_moves(self, source: BasicBlock,
                   target: BasicBlock) -> List[ast.stmt]:
        """The edge's phi moves: one parallel (tuple) assignment."""
        phis = target.phis
        if not phis:
            return []
        values = [self.expr(p.incoming_value_for(source)) for p in phis]
        if len(phis) == 1:
            return [_assign(self.name_of(phis[0]), values[0])]
        targets = _tuple(*(_name(self.name_of(p), _STORE) for p in phis),
                         ctx=_STORE)
        return [_assign(targets, _tuple(*values))]

    # -- instructions -----------------------------------------------------------------------

    def _compile_instruction(self, inst: Instruction) -> List[ast.stmt]:
        name = self.name_of(inst) if not inst.type.is_void else None
        e = self.expr

        if isinstance(inst, (BinaryInst, CastInst)):
            return [_assign(name, self._scalar_expr(inst))]

        if isinstance(inst, (ICmpInst, FCmpInst)):
            if self._fused_into_branch(inst):
                return []  # emitted as the test of its block's ``br``
            return [_assign(name, _bool01(self._scalar_expr(inst)))]

        if isinstance(inst, SelectInst):
            return [_assign(name, _ifexp(
                e(inst.condition), e(inst.true_value), e(inst.false_value)
            ))]

        if isinstance(inst, AllocaInst):
            size = T.size_of(inst.allocated_type) * inst.count
            return [_assign(name, _tuple(
                _calln("_MemoryBuffer", _const(size), _const(inst.name)),
                _const(0),
            ))]

        if isinstance(inst, LoadInst):
            return [_assign(name, self._load_expr(inst))]

        if isinstance(inst, StoreInst):
            return [self._store_stmt(inst)]

        if isinstance(inst, GEPInst):
            if id(inst) in self._folded:
                return []  # its accesses compute the address themselves
            return [_assign(name, _tuple(*self._gep_address(inst)))]

        if isinstance(inst, CallInst):
            callee = inst.callee
            if isinstance(callee, Function):
                target = self._bind_call_target(callee)
            else:
                target = self.bind(
                    ("static", callee), getattr(callee, "name", "callee")
                )
            call = _calln(target, *(e(a) for a in inst.args))
            entry = native_result(inst)
            if entry is not None and name:
                call = instantiate(entry, [lambda: call])
            return [_assign(name, call) if name else _expr_stmt(call)]

        if isinstance(inst, IndirectCallInst):
            call = _call(e(inst.callee), *(e(a) for a in inst.args))
            entry = native_result(inst)
            if entry is not None and name:
                call = instantiate(entry, [lambda: call])
            return [_assign(name, call) if name else _expr_stmt(call)]

        if isinstance(inst, RetInst):
            if inst.value is None:
                return [_return(_const(None))]
            return [_return(e(inst.value))]

        if isinstance(inst, UnreachableInst):
            return [_raise_trap("reached unreachable")]

        raise JITError(f"cannot lower {type(inst).__name__}")

    def _bind_call_target(self, callee: Function) -> str:
        """Record a lazily-compiled trampoline slot for a direct callee."""
        slot = f"_f_{_NAME_RE.sub('_', callee.name)}"
        self.bindings.setdefault(slot, ("trampoline", callee))
        return slot

    # -- expression fragments ------------------------------------------------------------------

    def _scalar_expr(self, inst: Instruction) -> ast.expr:
        """Binop, compare or cast: the semantics table's entry over this
        instruction's operands (a compare comes back as a Python truth
        test, not yet a 0/1 value)."""
        method = OBJECT_TABLE_CASTS.get(inst.opcode)
        if method is not None:
            return _call(_attr(_name(self._objtab()), method),
                         self.expr(inst.value))
        entry = scalar_entry(inst, self._ranges)
        if entry is None:
            raise JITError(f"no scalar semantics for {inst!r}")
        return instantiate(entry, [
            (lambda value=value: self.expr(value))
            for value in inst.operands])

    def _branch_test(self, inst: CondBranchInst) -> ast.expr:
        cond = inst.condition
        if self._fused_into_branch(cond):
            return self._scalar_expr(cond)
        return self.expr(cond)

    def _fused_into_branch(self, value: Value) -> bool:
        """A compare whose only use is its own block's ``br`` becomes that
        branch's ``if`` test (``if a < b:``) and never a 0/1 local; its
        operands are SSA names nothing in between reassigns.  A split
        copy is judged by its original, whose local it shares."""
        if not isinstance(value, (ICmpInst, FCmpInst)):
            return False
        value = self._alias.get(value, value)
        uses = value.uses
        if len(uses) != 1:
            return False
        user = uses[0].user
        return isinstance(user, CondBranchInst) and user.parent is value.parent

    def _load_expr(self, inst: LoadInst) -> ast.expr:
        ty = inst.type
        if isinstance(ty, T.PointerType):
            return _calln("_cell_load", self.expr(inst.pointer))
        element = self._element(inst)
        if element is not None:
            if ty.bits == 1:
                return _bin(element, ast.BitAnd(), _const(1))
            return element
        return _calln("_load_scalar", self._type_slot(ty),
                      self.expr(inst.pointer))

    def _store_stmt(self, inst: StoreInst) -> ast.stmt:
        value = inst.value
        ty = value.type
        if isinstance(ty, T.PointerType):
            return _expr_stmt(_calln("_cell_store", self.expr(inst.pointer),
                                     self.expr(value)))
        element = self._element(inst, _STORE)
        if element is not None:
            stored = self.expr(value)
            if ty.bits == 1:
                stored = _bin(stored, ast.BitAnd(), _const(1))
            return _assign(element, stored)
        return _expr_stmt(_calln("_store_scalar", self._type_slot(ty),
                                 self.expr(inst.pointer), self.expr(value)))

    def _type_slot(self, ty: T.Type) -> ast.Name:
        """The IR type ``_load_scalar``/``_store_scalar`` take, a static
        binding."""
        return _name(self.bind(("static", ty), f"ty{ty}"))

    # -- addresses -----------------------------------------------------------------------------

    def _foldable_geps(self) -> set:
        """GEPs never materialised as a ``(buffer, offset)`` local: every
        use is the address of a non-pointer load or store, or the base of
        another such GEP, in the GEP's own block — where no edge, so no
        phi move reassigning an index and no loop repeating the
        arithmetic, comes between the GEP and the access recomputing it.

        The same walk records the *addressed* values in
        :attr:`_addressed`: every other pointer (argument, instruction or
        global) that is the address of a non-pointer load or store, or the
        base of a GEP.  Their parts get locals (:meth:`_bind_parts`), and
        a second walk adds the view formats their accesses index
        (:meth:`_plan`)."""
        folded: set = set()
        addressed = self._addressed = {}
        accesses = []
        for block in self.func.blocks:
            for inst in reversed(block.instructions):  # users first
                if isinstance(inst, GEPInst):
                    address = inst.pointer
                    if inst.uses and all(
                            self._folds_into(inst, use.user, folded)
                            for use in inst.uses):
                        folded.add(id(inst))
                        addressed.pop(id(inst), None)
                elif isinstance(inst, (LoadInst, StoreInst)):
                    ty = (inst.type if isinstance(inst, LoadInst)
                          else inst.value.type)
                    if ty.is_pointer:
                        continue
                    address = inst.pointer
                    accesses.append(inst)
                else:
                    continue
                if (isinstance(address, (Argument, Instruction,
                                         GlobalVariable))
                        and id(address) not in folded
                        and id(address) not in addressed):
                    addressed[id(address)] = set()
                    if isinstance(address, GlobalVariable):
                        self._globals.append(address)
        self._folded = folded
        for inst in accesses:
            plan = self._plan(inst)
            if plan is not None:
                self._plans[id(inst)] = plan
                addressed[id(plan[0])].add(plan[1])
        return folded

    def _plan(self, inst: Union[LoadInst, StoreInst]) -> Optional[Tuple]:
        """How ``inst`` reaches its scalar through a view: ``(base, fmt,
        static, terms)``, the folded GEPs between its address and the
        addressed ``base`` flattened into a byte offset.  ``None`` keeps
        the oracle's accessors: an odd width, an unaddressed base, or a
        static offset or stride that is not a whole number of elements."""
        ty = inst.type if isinstance(inst, LoadInst) else inst.value.type
        fmt = VIEW_FORMATS.get(ty)
        if fmt is None:
            return None
        pointer, static, terms = inst.pointer, 0, []
        while id(pointer) in self._folded:
            gep = gep_terms(pointer)
            if gep is None:
                return None
            static += gep[0]
            terms[:0] = gep[1]
            pointer = pointer.pointer
        size = VIEW_SIZES[fmt]
        if (id(pointer) not in self._addressed or static % size
                or any(stride % size for _, stride in terms)):
            return None
        return pointer, fmt, static, terms

    @staticmethod
    def _folds_into(gep: GEPInst, user: Instruction, folded: set) -> bool:
        if user.parent is not gep.parent:
            return False
        if isinstance(user, StoreInst):
            return (user.pointer is gep and user.value is not gep
                    and not user.value.type.is_pointer)
        if isinstance(user, LoadInst):
            return not user.type.is_pointer
        return id(user) in folded and user.pointer is gep

    def _bind_parts(self, value: Value) -> List[ast.stmt]:
        """For an addressed pointer just defined: ``<name>_b, <name>_o``
        (a pointer is an immutable tuple), then each view its accesses
        index (:meth:`_bind_view`).  A value that may not be a tuple --
        an ``i8*`` carrying a function handle or an opaque object -- is
        split as ``_null``, so it fails at an access only."""
        name = self.name_of(value)
        if isinstance(value, GlobalVariable):
            pointer = self.expr(value)
        else:
            pointer = _name(name)
            if not isinstance(value, (AllocaInst, GEPInst)):
                pointer = _ifexp(_cmp(_attr(pointer, "__class__"), ast.Is(),
                                      _name("tuple")),
                                 _name(name), _name("_null"))
        parts = [_assign(_tuple(_name(name + "_b", _STORE),
                                _name(name + "_o", _STORE), ctx=_STORE),
                         pointer)]
        fresh = isinstance(value, AllocaInst)
        for fmt in sorted(self._addressed[id(value)]):
            parts.extend(self._bind_view(name, fmt, fresh))
        return parts

    @staticmethod
    def _bind_view(name: str, fmt: str, fresh: bool) -> List[ast.stmt]:
        """``<name>_v<fmt>``, the buffer's ``fmt`` view, and
        ``<name>_e<fmt>``, the element the offset is at (the offset
        itself for bytes).  The buffer's ``view_<fmt>`` serves an offset
        on the element grid; a first use (no view yet, as always for a
        ``fresh`` buffer, an ``alloca``'s), an offset off the grid and a
        null pointer take ``_bind_view``."""
        size = VIEW_SIZES[fmt]
        buffer, offset = _name(name + "_b"), _name(name + "_o")
        view = _name(f"{name}_v{fmt}", _STORE)
        slow = _calln("_bind_view", buffer, offset, _const(fmt))
        tests = [_cmp(_name(f"{name}_v{fmt}"), ast.Is(), _const(None)),
                 _cmp(offset, ast.Lt(), _const(0))]
        if size == 1:
            slow, fast = _item(slow, 0), []
        else:
            element = _name(f"{name}_e{fmt}", _STORE)
            fast = [_assign(element, _bin(offset, ast.RShift(),
                                          _const(size.bit_length() - 1)))]
            tests.insert(1, _bin(offset, ast.BitAnd(), _const(size - 1)))
            view = _tuple(view, element, ctx=_STORE)
        if fresh:
            return [_assign(view, slow)]
        return [_assign(f"{name}_v{fmt}", _attr(buffer, "view_" + fmt)),
                _if(ast.BoolOp(op=ast.Or(), values=tests, **_LOC),
                    [_assign(view, slow)], fast)]

    def _element(self, inst: Union[LoadInst, StoreInst],
                 ctx: ast.expr_context = _LOAD) -> Optional[ast.Subscript]:
        """``<base>_v<fmt>[index]``, the view element ``inst`` accesses,
        or ``None`` for the oracle's accessors.  The index is the base's
        element plus each term; one that no constant or range fact proves
        non-negative is tested (``_oob`` faults), since a view would
        wrap a negative index."""
        plan = self._plans.get(id(self._alias.get(inst, inst)))
        if plan is None:
            return None
        base, fmt, static, terms = plan
        size = VIEW_SIZES[fmt]
        name = self.name_of(base)
        index: ast.expr = _name(name + ("_o" if size == 1 else f"_e{fmt}"))
        proven = static >= 0
        for value, stride in terms:
            if not stride:
                continue
            term = self.expr(value)
            if stride != size:
                term = _bin(term, ast.Mult(), _const(stride // size))
            index = _bin(index, ast.Add(), term)
            proven = proven and self._nonnegative(value, inst.parent)
        if static:
            index = _bin(index, ast.Add(), _const(static // size))
        if not proven:
            index = _ifexp(
                _cmp(ast.NamedExpr(target=_name("_t", _STORE), value=index,
                                   **_LOC), ast.GtE(), _const(0)),
                _name("_t"), _calln("_oob"))
        return _subscript(_name(f"{name}_v{fmt}"), index, ctx)

    def _nonnegative(self, value: Value, block: BasicBlock) -> bool:
        """Does a range fact prove ``value >= 0`` in ``block``?  (A
        constant index is already in the static offset.)"""
        interval = (self._ranges.interval(value, block)
                    if self._ranges is not None else None)
        return interval is not None and interval[0] >= 0

    def _mapping_faults(self, body: List[ast.stmt]) -> ast.Try:
        """``body`` under the handler that turns the ``IndexError`` or
        ``ValueError`` of this frame's own view access into a
        :class:`~.runtime.MemoryFault` (``_memory_fault``); any other
        re-raises as it was."""
        return ast.Try(body=body, handlers=[ast.ExceptHandler(
            type=_name("_ACCESS_ERRORS"), name="_exc",
            body=[_expr_stmt(_calln("_memory_fault", _name("_exc"))),
                  ast.Raise(exc=None, cause=None, **_LOC)], **_LOC)],
            orelse=[], finalbody=[], **_LOC)

    def _parts(self, pointer: Value) -> Tuple[ast.expr, ast.expr]:
        """``pointer``'s buffer and offset: a folded GEP contributes its
        arithmetic, an addressed value its locals, anything else its two
        items."""
        if id(pointer) in self._folded:
            return self._gep_address(pointer)
        if id(pointer) in self._addressed:
            name = self.name_of(pointer)
            return _name(name + "_b"), _name(name + "_o")
        return _item(self.expr(pointer), 0), _item(self.expr(pointer), 1)

    def _gep_address(self, inst: GEPInst) -> Tuple[ast.expr, ast.expr]:
        terms = gep_terms(inst)
        if terms is None:
            raise JITError(f"cannot lower the indices of {inst!r}")
        static, var_terms = terms
        buffer, offset = self._parts(inst.pointer)
        for index, stride in var_terms:
            term = self.expr(index)
            if stride != 1:
                term = _bin(term, ast.Mult(), _const(stride))
            offset = _bin(offset, ast.Add(), term)
        if static or not var_terms:
            offset = _bin(offset, ast.Add(), _const(static))
        return buffer, offset


def _make_source_hook(func: Function) -> Callable[[], str]:
    """Deferred debugging-source generator for ``func``'s artifact.

    Codegen is deterministic, so re-lowering the same body and unparsing
    reproduces exactly the code the artifact was compiled from; storing
    this closure instead of the text keeps artifacts small.
    """

    def unparse() -> str:
        return ast.unparse(FunctionCompiler(func).build_tree())

    return unparse


#: serializes cold codegen across threads: two caller threads may race
#: to compile, and ``assign_names``
#: + the ``_cached_code`` publication must not interleave
_codegen_lock = threading.Lock()


def codegen_function(func: Function, telemetry=None) -> CompiledCode:
    """Generate (or fetch from the function's cache) the compiled artifact.

    A cold build is traced as a ``codegen.build`` span on ``telemetry``
    (the compiling engine's, from :func:`acquire_artifact`, so it nests
    inside that engine's ``jit.compile`` span on the compiling thread;
    the ambient one when called bare), so traces separate pure AST
    construction + bytecode compilation from descriptor resolution.
    """
    cached = func._cached_code
    if cached is not None and cached.matches(func):
        return cached
    with _codegen_lock:
        cached = func._cached_code  # a racing thread may have finished
        if cached is not None and cached.matches(func):
            return cached
        tel = telemetry if telemetry is not None else ambient_telemetry()
        with tel.span(EV.CODEGEN_BUILD, function=func.name,
                      code_version=func.code_version):
            artifact = FunctionCompiler(func).compile()
        func._cached_code = artifact
    return artifact


def publish_artifact(func: Function, artifact: CompiledCode) -> CompiledCode:
    """Install an externally produced (deserialized) artifact into the
    function's in-memory cache, unless a valid one is already there.

    Returns the artifact that ended up cached — racing threads agree on
    one winner, same as :func:`codegen_function`'s publication.
    """
    with _codegen_lock:
        cached = func._cached_code
        if cached is not None and cached.matches(func):
            return cached
        func._cached_code = artifact
    return artifact


def acquire_artifact(func: Function, engine) -> CompiledCode:
    """``func``'s compiled artifact, from the cheapest place that has it:
    the function's in-memory cache, then ``engine``'s persistent disk
    cache (a hit deserializes and installs the stored artifact instead
    of compiling), then code generation, written through to disk.

    The one route to compiled code, on the thread that wants it:
    :func:`compile_function` or a promotion (``engine._promote``).
    Engine-read-only: the engine is asked for its disk cache and
    telemetry only, so one thread may run this while others keep
    calling, and no engine lock is held.  Which path ran is recorded there
    (``jit.cache_hit``/``jit.cache_miss`` plus ``diskcache.hit``/
    ``diskcache.miss``/``diskcache.write``), with a ``jit.compile`` span
    around cold code generation (``codegen.build`` nests inside it).
    """
    cached = func._cached_code
    tel = engine.telemetry
    if cached is not None and cached.matches(func):
        tel.event(EV.JIT_CACHE_HIT, function=func.name,
                  code_version=func.code_version)
        return cached
    tel.event(EV.JIT_CACHE_MISS, function=func.name)
    artifact = engine.disk_lookup(func)
    if artifact is not None:
        return publish_artifact(func, artifact)
    with tel.span(EV.JIT_COMPILE, function=func.name,
                  code_version=func.code_version):
        artifact = codegen_function(func, tel)
    engine.disk_store(func, artifact)
    return artifact


def compile_function(func: Function, engine):
    """Compile an IR function to a Python callable bound to ``engine``:
    :func:`acquire_artifact`, then descriptor resolution + ``exec`` of
    the ready code object.  Control flow that does not nest gets the
    engine's tree-walker instead, reason in ``__jit_fallback__``."""
    try:
        artifact = acquire_artifact(func, engine)
    except _Unstructured as why:
        engine.telemetry.event(EV.JIT_FALLBACK, function=func.name,
                               reason=str(why))
        thunk = engine._baseline(func, "interp")
        thunk.__jit_fallback__ = str(why)
        return thunk
    return artifact.instantiate(engine, func)
