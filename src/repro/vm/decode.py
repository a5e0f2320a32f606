"""Pre-decoded interpreter tier.

Lowers a :class:`~repro.ir.function.Function` *once* into per-block
tuples of argument-resolving closures and then executes those closures in
a tight loop.  This removes the three per-step costs of the tree-walking
reference interpreter (``repro.vm.interpreter``):

* the ``isinstance`` dispatch chain over ~18 instruction classes;
* per-operand ``_eval`` (constant re-evaluation, ``id()`` hashing into a
  dict-shaped frame);
* the opcode table lookups inside ``fold_int_binop``/``fold_float_binop``.

Frames become flat Python lists.  Every SSA value (argument, phi,
instruction result) is assigned a fixed slot at decode time; constants are
folded to runtime values once and pre-filled into a frame *template* that
each invocation copies.  Phi nodes compile to per-edge parallel-copy
closures executed by the predecessor's terminator, preserving LLVM's
simultaneous-read semantics.

The tree-walker remains the semantic oracle: the decoded tier is
differential-tested against it (``tests/properties``), and any function it
cannot decode (:class:`DecodeError`) falls back to the tree-walker.

**Superinstruction fusion**: a decode-time peephole collapses the
dominant closure chains into single closures, cutting the per-step call
overhead that separates the decoded tier from the JIT:

* ``icmp``/``fcmp`` + ``br i1`` becomes one compare-and-branch closure
  (the single hottest pair in loop-heavy code);
* a pure single-use producer (``load``, ``binop``, ``cmp``, ``cast``,
  ``gep``, ``select``) feeding the *immediately following* instruction is
  inlined into its consumer as a value thunk — chains compose, so
  ``load``+``add``+``icmp``+``br`` can end up as one closure;
* a phi parallel copy is inlined into its edge's jump closure instead of
  being a separate nested call.

What a binop, compare or cast *computes* is not written here: those
closures come from the closure factories of ``vm/semantics.py`` (the one
table of scalar semantics, shared with the JIT), closed over this
function's frame slots.  A compare fused into its branch is its table
entry used as the branch's test; it alone writes no frame slot (its one
reader is that branch).  Loads, stores, address arithmetic, ``select``
and the value-carrying terminators are this tier's own bodies
(:data:`_BODIES`), written once each and specialised to their operand
shape by the same kind of cached factory.  A scalar load or store
indexes the buffer's typed view by the JIT's protocol (``runtime``'s
``bind_view`` and ``view_fault``): the two read and fault alike.

Fusion is only applied when the producer's one use is the very next
instruction (or the block terminator), so no other step can observe the
intermediate slot: traps and side effects keep their exact order, and
results are those of the tree-walker (differential-tested).  Step
accounting charges the *IR* instruction count per block, so step limits
and back-edge profiling — including OSR hot-counter probes at fused
loop headers — do not depend on what fused.  Per-function counts of each
fusion kind are recorded on :attr:`DecodedFunction.fusion` and surface
through ``engine.stats_snapshot()["fusion"]`` and the ``decode.fuse``
telemetry event.

Frame layout::

    slot 0             per-invocation alloca list (freed on exit)
    slot 1             return-value slot
    slot 2..2+nargs    arguments
    ...                instruction results (one slot per non-void result)
    tail               decode-time constants (pre-filled in the template)
"""

from __future__ import annotations

import linecache
from functools import lru_cache, partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.manager import default_manager
from ..ir import types as T
from ..ir.function import BasicBlock, Function
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
from ..ir.values import Constant, Value
from .interpreter import const_value
from .runtime import (
    ACCESS_ERRORS,
    VIEW_FORMATS,
    VIEW_SIZES,
    MemoryBuffer,
    Trap,
    bind_view,
    free,
    gep_offset,
    load_pointer,
    load_scalar,
    store_pointer,
    store_scalar,
    view_fault,
)
from .semantics import (
    OBJECT_TABLE_CASTS,
    TRUTH,
    closure_factory,
    gep_terms,
    native_result,
    scalar_entry,
)

#: sentinel block index meaning "return frame[1]"
RETURN = -1

#: reserved frame slots (allocas list, return value)
_RESERVED = 2


class DecodeError(Exception):
    """Raised when a function cannot be lowered to closures; the engine
    falls back to the tree-walking interpreter."""


#: pure, non-void instruction kinds whose value may be deferred into the
#: next step (their only effect is the value they produce — a trap they
#: raise moves to the consumer's position, with nothing in between)
_FUSIBLE_PRODUCERS = (
    BinaryInst, ICmpInst, FCmpInst, SelectInst, LoadInst, CastInst, GEPInst,
)

#: consumer kinds whose decoding reads *every* operand through a getter,
#: so a pending producer thunk is guaranteed to be consumed
_FUSIBLE_CONSUMERS = (
    BinaryInst, ICmpInst, FCmpInst, SelectInst, LoadInst, StoreInst,
    GEPInst, CastInst,
)


# -- the decoder's closure skeleton -------------------------------------------------
#
# Memory accesses, address arithmetic, ``select`` and the value-carrying
# terminators compute no arithmetic, so they are the *decoder's* bodies,
# not rows of the semantics table; a scalar access indexes a typed view
# as JIT'd code does (``_view_access``).  Each body is written once over
# its operand reads ``{0}``, ``{1}``, ... and compiled once per operand
# shape -- ``oN(frame)`` for a fused producer thunk, ``frame[oN]`` for a
# slot -- so no shape test is left to run time.

#: how a value thunk ends: write the instruction's own slot, return the
#: value for nested composition
_WRITE = "frame[dst] = v\nreturn v"


def _view_access(fmt: str, access: str) -> str:
    """``access`` to ``view[e]``, the pointer ``buf, off``'s element of
    the buffer's ``fmt`` view, bound as JIT'd code binds it."""
    size = VIEW_SIZES[fmt]
    test = "off < 0" if size == 1 else f"off & {size - 1} or off < 0"
    return (f"view = buf.view_{fmt}\n"
            f"if view is None or {test}:\n"
            f"    view, e = bind_view(buf, off, '{fmt}')\n"
            "else:\n"
            + ("    e = off\n" if size == 1
               else f"    e = off >> {size.bit_length() - 1}\n")
            + f"try:\n    {access}\n"
            "except ACCESS_ERRORS as exc:\n"
            "    view_fault(exc)\n    raise\n")


def _gep_body(count: int) -> Tuple[str, str]:
    # ``{0}`` is the base pointer; constant indices are already folded
    # into ``static``, each remaining index is scaled by its stride
    strides = "".join(f" s{i}" for i in range(1, count))
    terms = "".join(f" + {{{i}}} * s{i}" for i in range(1, count))
    return ("dst static" + strides,
            "base = {0}\nv = (base[0], base[1] + static" + terms + ")\n"
            + _WRITE)


def _gep_generic_body(count: int) -> Tuple[str, str]:
    indices = ", ".join(f"{{{i}}}" for i in range(1, count))
    return ("dst pointee",
            "base = {0}\nv = (base[0], base[1] + gep_offset(pointee, ["
            + indices + "]))\n" + _WRITE)


#: ``(name key, view format, mask)`` of each view access body: one per
#: format, and ``bit``, an ``i1`` as the low bit of a byte
_KEYS = [(fmt, fmt, "") for fmt in VIEW_SIZES] + [("bit", "b", " & 1")]

#: body name -> (closed-over parameters, body over the operand reads), or
#: a function of the operand count returning that pair
_BODIES = {
    # {0} is the pointer; a pointer cell or an odd width takes ``load``
    **{f"load_{key}_val": ("dst", "buf, off = {0}\n" + _view_access(
        fmt, "v = view[e]" + low) + _WRITE) for key, fmt, low in _KEYS},
    "load_val": ("dst load", "v = load({0})\n" + _WRITE),
    # {0} is the value, {1} the pointer
    **{"store_" + key: ("", "val = {0}\nbuf, off = {1}\n" + _view_access(
        fmt, "view[e] = val" + low)) for key, fmt, low in _KEYS},
    "store_generic": ("store", "val = {0}\nstore({1}, val)"),
    # all three operands evaluate eagerly: a fused producer on the
    # unpicked arm must still trap exactly as the standalone step would
    "select_val": ("dst", "cv = {0}\ntv = {1}\nfv = {2}\n"
                   "v = tv if cv else fv\n" + _WRITE),
    "object_cast_val": ("dst raw", "v = raw({0})\n" + _WRITE),
    "gep_val": _gep_body,
    "gep_generic_val": _gep_generic_body,
    "switch": ("get default", "jump, target = get({0}, default)\n"
               "return jump(frame) if jump is not None else target"),
    "ret": ("", "frame[1] = {0}\nreturn RETURN"),
}


@lru_cache(maxsize=None)
def _closure_factory(name: str, thunks: Tuple[bool, ...]) -> Callable:
    """``make(*closed_over, *operands)`` for body ``name`` at one operand
    shape (``thunks[i]``: operand *i* is a fused producer thunk, not a
    frame slot), compiled on first use and cached for the life of the
    process; decoding an instruction only *calls* it."""
    entry = _BODIES[name]
    closed_over, body = entry(len(thunks)) if callable(entry) else entry
    operands = [f"o{i}" for i in range(len(thunks))]
    reads = [f"{o}(frame)" if is_thunk else f"frame[{o}]"
             for o, is_thunk in zip(operands, thunks)]
    lines = body.format(*reads).replace("\n", "\n        ")
    source = (f"def make({', '.join(closed_over.split() + operands)}):\n"
              f"    def {name}(frame):\n"
              f"        {lines}\n"
              f"    return {name}\n")
    # not "<...>"-wrapped: linecache ignores lazy entries under such names
    filename = (f"<decode>/{name}/"
                + ",".join("thunk" if t else "slot" for t in thunks))
    # source for tracebacks, split into lines only if one is ever printed
    linecache.cache[filename] = (lambda: source,)
    namespace = {"RETURN": RETURN, "gep_offset": gep_offset,
                 "bind_view": bind_view, "view_fault": view_fault,
                 "ACCESS_ERRORS": ACCESS_ERRORS}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["make"]


class _Decoder:
    """Builds the slot map and per-instruction closures for one function."""

    def __init__(self, func: Function, engine):
        self.func = func
        self.engine = engine
        self._slots: Dict[int, int] = {}
        self._template: List[Any] = [None] * _RESERVED
        self._block_index: Dict[int, int] = {}
        #: deferred producer thunks, keyed by id(instruction); the
        #: adjacency rule keeps at most one entry alive at any moment
        self._pending: Dict[int, Callable] = {}
        self.stats = {"cmp_br": 0, "op_chain": 0, "phi_copy": 0}
        #: what dominating compares prove, for the cheapest wrap rows
        self._ranges = None

    # -- slots -----------------------------------------------------------------

    def _new_slot(self, initial=None) -> int:
        slot = len(self._template)
        self._template.append(initial)
        return slot

    def slot_of(self, value: Value) -> int:
        """Frame slot for an operand; constants get template-filled slots."""
        key = id(value)
        slot = self._slots.get(key)
        if slot is None:
            if isinstance(value, Constant):
                slot = self._new_slot(const_value(self.engine, value))
            else:
                raise DecodeError(f"operand {value!r} has no slot")
            self._slots[key] = slot
        return slot

    def define(self, value: Value) -> int:
        """Allocate the result slot for an argument/instruction."""
        slot = self._new_slot()
        self._slots[id(value)] = slot
        return slot

    # -- top level -------------------------------------------------------------

    def decode(self) -> "DecodedFunction":
        func = self.func
        if func.is_declaration:
            raise DecodeError(f"cannot decode declaration @{func.name}")
        self._ranges = default_manager().range_facts(func)

        arg_slots = tuple(self.define(arg) for arg in func.args)
        blocks = func.blocks
        for index, block in enumerate(blocks):
            self._block_index[id(block)] = index
            if block.terminator is None:
                # the tree-walker executes the partial block before
                # trapping; fall back to it to preserve side effects
                raise DecodeError(f"block %{block.name} is unterminated")
        # result slots must exist before any operand references them
        # (phis and back edges reference later definitions)
        for block in blocks:
            for inst in block.instructions:
                if not inst.type.is_void:
                    self.define(inst)

        decoded_blocks = []
        for block in blocks:
            insts = block.instructions[block.first_non_phi_index:-1]
            steps = self._decode_steps_fused(block, insts)
            term = self._decode_terminator(block)
            if self._pending:  # pragma: no cover - adjacency rule violated
                raise DecodeError(
                    f"unconsumed fused producer in %{block.name}"
                )
            decoded_blocks.append((steps, term))

        return DecodedFunction(
            func, tuple(decoded_blocks), tuple(self._template), arg_slots,
            self.stats,
        )

    # -- superinstruction fusion -------------------------------------------------

    def _decode_steps_fused(self, block: BasicBlock,
                            insts) -> Tuple[Callable, ...]:
        """Decode a block's straight-line steps with the fusion peephole."""
        steps: List[Callable] = []
        count = len(insts)
        for position, inst in enumerate(insts):
            nxt = (insts[position + 1] if position + 1 < count
                   else block.terminator)
            if self._can_fuse(inst, nxt):
                # defer: the value materializes inside the consumer (the
                # thunk is built lazily at the consumption site, so the
                # consumer can pick the flattest closure shape)
                self._pending[id(inst)] = inst
                continue
            if isinstance(inst, _FUSIBLE_CONSUMERS):
                # every fusible kind goes through the fused builders:
                # they consume a pending producer when there is one, and
                # even standalone they emit the flat superinstruction
                # shapes (inline operand reads, inline view accesses)
                steps.append(self._value_thunk(inst))
            else:
                steps.append(self._decode_instruction(inst))
        return tuple(steps)

    def _can_fuse(self, inst: Instruction, nxt) -> bool:
        """May ``inst``'s value be deferred into ``nxt``?

        Requires: a pure producer kind, exactly one use, and that use is
        the *immediately following* instruction (or this block's
        terminator) — adjacency is what makes deferral unobservable.
        """
        if inst.type.is_void or not isinstance(inst, _FUSIBLE_PRODUCERS):
            return False
        if inst.num_uses != 1:
            return False
        users = inst.users
        if not users or users[0] is not nxt:
            return False
        if isinstance(nxt, _FUSIBLE_CONSUMERS):
            return True
        if isinstance(nxt, CondBranchInst):
            return nxt.condition is inst
        if isinstance(nxt, SwitchInst):
            return nxt.value is inst
        if isinstance(nxt, RetInst):
            return nxt.value is inst
        return False

    def _shaped_operands(self, values) -> Tuple[Tuple[bool, ...], List]:
        """Operands for a closure factory: which of them are fused
        producer thunks, and the thunk or frame slot of each.

        The pending deferred producer arrives as its composed value
        thunk (resolved exactly once: it must not be popped twice); any
        other value as its plain frame slot, which the closure reads
        *inline* — far cheaper than an accessor call, which is what
        makes fusion a net win.
        """
        thunks, operands = [], []
        for value in values:
            pending = self._pending.pop(id(value), None)
            if pending is None:
                operands.append(self.slot_of(value))
            else:
                self.stats["op_chain"] += 1
                operands.append(self._value_thunk(pending))
            thunks.append(pending is not None)
        return tuple(thunks), operands

    def _closure(self, name: str, values, *closed_over) -> Callable:
        """Body ``name`` of the decoder's skeleton over ``values``."""
        thunks, operands = self._shaped_operands(values)
        return _closure_factory(name, thunks)(*closed_over, *operands)

    def _store_thunk(self, inst: StoreInst) -> Callable:
        ty, values = inst.value.type, (inst.value, inst.pointer)
        body = "bit" if ty == T.i1 else VIEW_FORMATS.get(ty)
        if body is not None:
            return self._closure("store_" + body, values)
        return self._closure("store_generic", values, store_pointer
                             if ty.is_pointer else partial(store_scalar, ty))

    def _value_thunk(self, inst: Instruction) -> Callable:
        """``thunk(frame) -> value``: the instruction's value computation
        with slot operands read inline and at most one nested fused
        thunk (the adjacency rule allows a single pending producer).

        Every thunk also writes the instruction's own frame slot — dead
        for a deferred mid-chain producer, but it keeps every SSA value
        the IR defines in the frame and lets a chain-ending consumer
        reuse its thunk as the step closure directly.  (A store is the
        one consumer with no value: its closure is a step only.)
        """
        if isinstance(inst, StoreInst):
            return self._store_thunk(inst)
        if isinstance(inst, SelectInst):
            return self._closure(
                "select_val",
                (inst.condition, inst.true_value, inst.false_value),
                self.slot_of(inst))
        if isinstance(inst, LoadInst):
            return self._load_thunk(inst)
        if isinstance(inst, GEPInst):
            return self._gep_thunk(inst)
        return self._scalar_thunk(inst)

    def _load_thunk(self, inst: LoadInst) -> Callable:
        ty, values, dst = inst.type, (inst.pointer,), self.slot_of(inst)
        body = "bit" if ty == T.i1 else VIEW_FORMATS.get(ty)
        if body is not None:
            return self._closure(f"load_{body}_val", values, dst)
        return self._closure("load_val", values, dst, load_pointer
                             if ty.is_pointer else partial(load_scalar, ty))

    def _scalar_thunk(self, inst: Instruction) -> Callable:
        """Binop, compare or cast: the semantics table's entry, closed
        over this instruction's slots (and fused producer thunk)."""
        method = OBJECT_TABLE_CASTS.get(inst.opcode)
        if method is not None:
            return self._closure(
                "object_cast_val", (inst.value,), self.slot_of(inst),
                getattr(self.engine.object_table, method))
        entry = scalar_entry(inst, self._ranges)
        if entry is None:
            raise DecodeError(f"no scalar semantics for {inst!r}")
        thunks, operands = self._shaped_operands(inst.operands)
        return closure_factory(entry, thunks)(self.slot_of(inst), *operands)

    def _gep_thunk(self, inst: GEPInst) -> Callable:
        terms = gep_terms(inst)
        dst = self.slot_of(inst)
        if terms is None:
            return self._closure(
                "gep_generic_val", (inst.pointer, *inst.indices), dst,
                inst.pointer.type.pointee)
        static, var_terms = terms
        return self._closure(
            "gep_val", (inst.pointer, *(index for index, _ in var_terms)),
            dst, static, *(stride for _, stride in var_terms))

    # -- terminators ------------------------------------------------------------

    def _edge_jump(self, source: BasicBlock, target_block: BasicBlock
                   ) -> Tuple[Optional[Callable], int]:
        """Single closure doing the edge's phi copy *and* the jump.

        Returns ``(jump, target_index)``; ``jump`` is ``None`` when the
        edge has no phis (the caller inlines the bare index instead).
        """
        phis = target_block.phis
        target = self._block_index[id(target_block)]
        if not phis:
            return None, target
        pairs = [
            (self.slot_of(phi), self.slot_of(phi.incoming_value_for(source)))
            for phi in phis
        ]
        self.stats["phi_copy"] += 1
        if len(pairs) == 1:
            dst, src = pairs[0]

            def jump1(frame):
                frame[dst] = frame[src]
                return target

            return jump1, target
        if len(pairs) == 2:
            (d0, s0), (d1, s1) = pairs

            def jump2(frame):
                # simultaneous read, then write (phi semantics)
                v0 = frame[s0]
                v1 = frame[s1]
                frame[d0] = v0
                frame[d1] = v1
                return target

            return jump2, target
        dsts = tuple(d for d, _ in pairs)
        srcs = tuple(s for _, s in pairs)

        def jumpn(frame):
            values = [frame[s] for s in srcs]
            for d, v in zip(dsts, values):
                frame[d] = v
            return target

        return jumpn, target

    def _decode_terminator(self, block: BasicBlock) -> Callable:
        inst = block.terminator

        if isinstance(inst, RetInst):
            if inst.value is None:

                def ret_void(frame):
                    frame[1] = None
                    return RETURN

                return ret_void
            return self._closure("ret", (inst.value,))

        if isinstance(inst, BranchInst):
            jump, target = self._edge_jump(block, inst.target)
            if jump is not None:
                return jump
            return lambda frame: target

        if isinstance(inst, CondBranchInst):
            # a semantics entry used as the test, plus which edges carry
            # a phi-copying jump closure: a deferred compare is its own
            # entry (predicate, phi copy and jump in ONE closure, no 0/1
            # round trip for the flag); any other condition is the i1
            # itself, a frame slot or a fused producer
            cond = inst.condition
            tjump, ttarget = self._edge_jump(block, inst.true_target)
            fjump, ftarget = self._edge_jump(block, inst.false_target)
            if (isinstance(cond, (ICmpInst, FCmpInst))
                    and self._pending.pop(id(cond), None) is not None):
                self.stats["cmp_br"] += 1
                entry, values = scalar_entry(cond), cond.operands
            else:
                entry, values = TRUTH, (cond,)
            thunks, operands = self._shaped_operands(values)
            make = closure_factory(
                entry, thunks, (tjump is not None, fjump is not None))
            return make(*operands,
                        ttarget if tjump is None else tjump,
                        ftarget if fjump is None else fjump)

        if isinstance(inst, SwitchInst):
            table: Dict[int, Tuple[Optional[Callable], int]] = {}
            for const, target in inst.cases:
                # first matching case wins, as in the linear scan
                table.setdefault(const.value, self._edge_jump(block, target))
            default = self._edge_jump(block, inst.default)
            return self._closure("switch", (inst.value,), table.get, default)

        if isinstance(inst, UnreachableInst):

            def unreachable(frame):
                raise Trap("reached 'unreachable'")

            return unreachable

        raise DecodeError(f"cannot decode terminator {type(inst).__name__}")

    # -- non-terminator instructions ---------------------------------------------

    def _decode_instruction(self, inst: Instruction) -> Callable:
        if isinstance(inst, AllocaInst):
            dst = self.slot_of(inst)
            size = T.size_of(inst.allocated_type) * inst.count
            label = f"alloca.{inst.name}"

            def alloca(frame):
                buf = MemoryBuffer(size, label)
                frame[0].append(buf)
                frame[dst] = (buf, 0)

            return alloca
        if isinstance(inst, CallInst):
            return self._decode_call(inst)
        if isinstance(inst, IndirectCallInst):
            return self._decode_indirect_call(inst)
        raise DecodeError(f"cannot decode {type(inst).__name__}")

    # -- calls --------------------------------------------------------------------

    def _decode_call(self, inst: CallInst) -> Callable:
        callee = inst.callee
        if not isinstance(callee, Function):
            raise DecodeError(f"cannot decode call of {callee!r}")
        arg_slots = tuple(self.slot_of(a) for a in inst.args)
        call = self.engine._call
        if inst.type.is_void:

            def call_void(frame):
                call(callee, [frame[s] for s in arg_slots])

            return call_void
        dst = self.slot_of(inst)
        entry = native_result(inst)
        if entry is not None:  # the row, over the call as a thunk
            return closure_factory(entry, (True,))(dst, lambda frame: call(
                callee, [frame[s] for s in arg_slots]))

        def call_step(frame):
            frame[dst] = call(callee, [frame[s] for s in arg_slots])

        return call_step

    def _decode_indirect_call(self, inst: IndirectCallInst) -> Callable:
        target = self.slot_of(inst.callee)
        arg_slots = tuple(self.slot_of(a) for a in inst.args)
        call_value = self.engine.call_value
        if inst.type.is_void:

            def icall_void(frame):
                call_value(frame[target], [frame[s] for s in arg_slots])

            return icall_void
        dst = self.slot_of(inst)
        entry = native_result(inst)
        if entry is not None:  # the row, over the call as a thunk
            return closure_factory(entry, (True,))(dst, lambda frame: (
                call_value(frame[target], [frame[s] for s in arg_slots])))

        def icall(frame):
            frame[dst] = call_value(
                frame[target], [frame[s] for s in arg_slots]
            )

        return icall


class DecodedFunction:
    """The decoded form of one IR function, bound to one engine.

    ``blocks[i]`` is ``(steps, terminator)`` where ``steps`` are
    closures over the frame and ``terminator`` applies the out-edge's
    phi parallel copy and returns the next block index (or
    :data:`RETURN`).

    ``fusion`` holds the per-function superinstruction counts from decode
    time (``cmp_br``, ``op_chain``, ``phi_copy``).
    """

    __slots__ = ("func", "name", "blocks", "template", "arg_slots",
                 "version", "shape", "fusion")

    def __init__(self, func: Function, blocks, template, arg_slots, fusion):
        self.func = func
        self.name = func.name
        self.blocks = blocks
        self.template = list(template)
        self.arg_slots = arg_slots
        self.version = func.code_version
        self.shape = func.code_shape()
        self.fusion = dict(fusion)

    @property
    def frame_slots(self) -> int:
        """Width of the per-invocation frame (alloca list + retval +
        args + non-void results + interned constants).  Scalarization
        shrinks this: split allocas and their gep/load/store traffic stop
        occupying result slots."""
        return len(self.template)

    def _frame(self, args) -> List[Any]:
        if len(args) != len(self.arg_slots):
            raise Trap(
                f"@{self.name} expects {len(self.arg_slots)} args, "
                f"got {len(args)}"
            )
        frame = self.template.copy()
        frame[0] = []
        frame[_RESERVED:_RESERVED + len(args)] = args
        return frame

    def run(self, args) -> Any:
        """Execute with no step accounting (the fast path)."""
        frame = self._frame(args)
        blocks = self.blocks
        index = 0
        try:
            while True:
                steps, term = blocks[index]
                for step in steps:
                    step(frame)
                index = term(frame)
                if index < 0:
                    return frame[1]
        finally:
            for buf in frame[0]:
                free((buf, 0))

    def run_counted(self, args, profile) -> Any:
        """Execute with hotness profiling: back edges (transitions to a
        block at the same or smaller index) increment
        ``profile.backedges`` for tier-up decisions."""
        frame = self._frame(args)
        blocks = self.blocks
        index = 0
        try:
            while True:
                steps, term = blocks[index]
                for step in steps:
                    step(frame)
                next_index = term(frame)
                if next_index < 0:
                    return frame[1]
                if next_index <= index:
                    profile.backedges += 1
                index = next_index
        finally:
            for buf in frame[0]:
                free((buf, 0))


def decode_function(func: Function, engine) -> DecodedFunction:
    """Decode ``func`` for execution against ``engine``.

    Raises :class:`DecodeError` when the function uses a construct the
    decoded tier does not support (or when evaluating a constant operand
    traps at decode time); callers fall back to the tree-walker, which
    reproduces the trap at the correct execution point.
    """
    try:
        return _Decoder(func, engine).decode()
    except Trap as exc:
        raise DecodeError(f"decode-time trap: {exc}") from exc
