"""Execution engine — the MCJIT substitute.

Owns a module, compiles functions on first call (lazy compilation), keeps
a symbol table of native (host Python) functions, materializes globals,
and maintains the *object table* that maps the integer "addresses" baked
into OSR stub IR (``inttoptr`` constants) back to live Python objects —
the IR function being OSR'd, its basic blocks, and code-generation
environments, exactly the three hard-wired parameters of the paper's
Figure 6 stub.

A tier string is a preset of :data:`POLICIES` (described there).  The
non-promoting presets are the bare baseline callable
(:meth:`ExecutionEngine._baseline`); the promoting ones share one
dispatcher (:meth:`~ExecutionEngine._make_dispatcher`) over the
function's one :class:`PublishBox`, one promote step
(:meth:`~ExecutionEngine._promote`: compile on the calling thread) and
one publish routine (:meth:`~ExecutionEngine._publish`:
generation-stamped, so a racing ``invalidate()`` discards the result).
Every tier transition is a publication into that box: the JIT'd code;
under ``speculate`` that code behind an argument-feedback stage, then
whichever specialization (or the plain code) the speculation manager
republishes over it.  A publication also rewrites what callers call
(:meth:`~ExecutionEngine._route`), so published code runs with no
dispatcher frame above it.

Tests flip tiers to cross-check semantics.

Thread-safety: the engine may be driven from several threads at once;
it starts none of its own.  One reentrant lock serializes the mutating
slow paths — compile-and-install in :meth:`get_compiled`,
:meth:`invalidate`, handle/global materialization and publication —
while the per-call hot paths stay lock-free dictionary reads.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import (TYPE_CHECKING, Any, Callable, Dict, Hashable, List,
                    NamedTuple, Optional, Sequence, Tuple)

from ..analysis.manager import default_manager
from ..ir import types as T
from ..ir.function import Function, Module
from ..ir.values import (
    ConstantArray,
    ConstantFloat,
    ConstantInt,
    ConstantString,
    GlobalVariable,
)
from ..obs import events as EV
from ..obs.telemetry import Telemetry, production_telemetry
from ..obs.telemetry import ambient as ambient_telemetry
from .jit import JITError, acquire_artifact, compile_function
from .profile import (
    DEFAULT_BACKEDGE_THRESHOLD,
    DEFAULT_CALL_THRESHOLD,
    TierProfiler,
)
from .runtime import (
    NULL,
    FunctionHandle,
    MemoryBuffer,
    MemoryFault,
    NativeHandle,
    OutputBuffer,
    Trap,
    copy_cells,
    drop_cells,
    fpow,
    free,
    store_scalar,
)

if TYPE_CHECKING:
    from .decode import DecodedFunction


class TierPolicy(NamedTuple):
    """What a tier string means for one function."""

    baseline: str            #: where it starts: interp | decoded | jit
    promote: bool            #: JIT hot code on the calling thread
    speculate: bool          #: argument feedback + entry-checked specialization


#: the tier presets; a promoting preset's key also names its dispatcher's
#: frames
POLICIES: Dict[str, TierPolicy] = {
    # Python-codegen, compiled on first call
    "jit": TierPolicy("jit", False, False),
    # the tree-walking reference interpreter (semantic oracle)
    "interp": TierPolicy("interp", False, False),
    # the pre-decoded closure interpreter: same semantics, no per-step
    # dispatch cost
    "decoded": TierPolicy("decoded", False, False),
    # mixed mode: decoded with call/backedge counters, promoted to the JIT
    # on the calling thread when the TierProfiler thresholds trip — the
    # profile-driven tier-up the paper's OSR machinery assumes
    "tiered": TierPolicy("decoded", True, False),
    # tiered plus argument-value feedback: a promoted function with
    # monomorphic arguments runs a specialization whose entry check calls
    # into the speculation policy when the guess breaks
    "speculative": TierPolicy("decoded", True, True),
}

#: valid values for the engine-wide and per-function tier setting
TIERS = tuple(POLICIES)


def _mark_thunk(wrapper: Callable, prefix: str, func,
                wrapped: Optional[Callable] = None) -> Callable:
    """``functools.wraps``-style identity propagation for engine thunks.

    Every thunk factory routes through here so trace spans, debugger
    frames and ``inspect.unwrap`` attribute the wrapper to the IR
    function it fronts: ``__name__`` *and* ``__qualname__`` carry the
    ``prefix_funcname`` label, and ``__wrapped__`` points at the inner
    callable when there is one (probes, dispatch targets).

    The label is also stamped onto the *code object* (``co_name``), so
    a live frame running this thunk names its tier and function in
    tracebacks and debugger stacks.  (Function ``__name__`` lives on the
    function object and is invisible to a frame.)
    """
    label = f"{prefix}_{func.name}"
    wrapper.__name__ = label
    wrapper.__qualname__ = label
    code = wrapper.__code__
    try:
        code = code.replace(co_name=label, co_qualname=label)
    except TypeError:  # pre-3.11: no co_qualname field
        code = code.replace(co_name=label)
    wrapper.__code__ = code
    wrapper.__ir_function__ = func.name
    if wrapped is not None:
        wrapper.__wrapped__ = wrapped
    return wrapper


class PublishBox:
    """What calls of one function reach now: the publication cell its
    dispatcher reads until something is published (the publication
    then also re-points the callers themselves, ``engine._route``).

    ``value`` starts ``None`` (keep running the baseline tier).  A
    promotion publishes only into an empty box of its own generation
    (the function's compile generation at dispatcher creation) — the
    "atomic publish"; stages above the compiled code (speculation's
    specializations) are republished over it, always under the
    owning engine's lock.  ``requested`` latches once a promotion has
    been attempted, so the dispatcher asks at most once: a
    :class:`JITError` leaves the function on the baseline tier instead
    of recompiling per call.
    """

    __slots__ = ("value", "generation", "requested")

    def __init__(self, generation: int):
        self.value = None
        self.generation = generation
        self.requested = False

    def __repr__(self) -> str:  # pragma: no cover
        state = ("published" if self.value is not None
                 else "requested" if self.requested else "idle")
        return f"<PublishBox gen={self.generation} {state}>"


class ObjectTable:
    """Bidirectional map between small integers and Python objects.

    Plays the role of the address space for ``inttoptr``/``ptrtoint``:
    OSRKit bakes ``intern(obj)`` results into stub IR, and executing the
    stub resolves them back.

    When constructed with an engine, interning an IR
    :class:`~repro.ir.function.Function` goes through the engine's
    ``handle_for`` path, so the handle baked into stub IR and the handle
    a direct call produces are the *same* object — stubs and direct
    calls agree, and redirecting the handle redirects both.
    """

    def __init__(self, engine=None) -> None:
        # address 0 is the null pointer: ``inttoptr 0`` is null and
        # ``ptrtoint null`` is 0
        self._objects: List[Any] = [NULL]
        self._ids: Dict[int, int] = {id(NULL): 0}
        self._engine = engine
        # share the engine's lock (no ordering hazards between the two);
        # a free-standing table gets its own
        self._lock = engine._lock if engine is not None else threading.RLock()

    def intern(self, obj: Any) -> int:
        key = id(obj)
        existing = self._ids.get(key)
        if existing is not None:
            return existing
        with self._lock:
            return self._intern_locked(obj)

    def _intern_locked(self, obj: Any) -> int:
        key = id(obj)
        existing = self._ids.get(key)
        if existing is not None:
            return existing
        if self._engine is not None and isinstance(obj, Function):
            handle_obj = self._engine.handle_for(obj)
            handle_key = id(handle_obj)
            handle = self._ids.get(handle_key)
            if handle is None:
                handle = len(self._objects)
                self._objects.append(handle_obj)
                self._ids[handle_key] = handle
            # the raw Function maps to the same slot as its handle
            self._ids[key] = handle
            return handle
        handle = len(self._objects)
        self._objects.append(obj)
        self._ids[key] = handle
        return handle

    def resolve(self, handle: int) -> Any:
        # single guarded lookup on the hot path instead of a separate
        # range check plus index
        if handle >= 0:
            try:
                return self._objects[handle]
            except IndexError:
                pass
        raise Trap(f"dangling object handle {handle}")


class ExecutionEngine:
    """Compile-and-run environment for a module."""

    def __init__(self, module: Module, tier: str = "tiered",
                 call_threshold: int = DEFAULT_CALL_THRESHOLD,
                 backedge_threshold: int = DEFAULT_BACKEDGE_THRESHOLD,
                 telemetry=None, flight: bool = False, disk_cache=None):
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}")
        self.module = module
        self.tier = tier
        #: persistent artifact store: a DiskCodeCache, or a path to open
        #: one at (str/PathLike).  When attached, JIT cache misses
        #: consult disk before compiling and fresh compiles write
        #: through — the process warm-start path.
        if isinstance(disk_cache, (str, os.PathLike)):
            from ..serve.diskcache import DiskCodeCache

            disk_cache = DiskCodeCache(disk_cache)
        self.disk_cache = disk_cache
        #: serializes the mutating slow paths (compile/install/invalidate
        #: /publication); reentrant because instantiation re-enters the
        #: engine's resolution APIs.  Created before the object table,
        #: which shares it for intern publication.
        self._lock = threading.RLock()
        self.object_table = ObjectTable(self)
        self.stdout = OutputBuffer()
        self._compiled: Dict[str, Callable] = {}
        self._handles: Dict[str, FunctionHandle] = {}
        self._natives: Dict[str, NativeHandle] = {}
        self._globals: Dict[str, tuple] = {}
        self._decoded: Dict[str, DecodedFunction] = {}
        #: per-function compile generation, bumped by :meth:`invalidate`;
        #: the publish protocol's staleness stamp
        self._generations: Dict[str, int] = {}
        #: function name -> its publication box ("which code does a
        #: call reach now"), for functions under a promoting policy
        self._boxes: Dict[str, PublishBox] = {}
        #: the continuation store (:meth:`continuation`): caller key ->
        #: (callable, {dependency name: its compile generation})
        self._continuations: Dict[Hashable, Tuple[Callable, dict]] = {}
        #: caller slots patched by lazy trampolines (callee name ->
        #: [(namespace, slot, owner)], owner = the name of the function
        #: whose code the namespace belongs to): rewritten at every
        #: publication of the callee, re-pointed at a trampoline on its
        #: invalidation, and dropped with the owner's invalidation
        self._patched: Dict[str, List[Tuple[dict, str, Optional[str]]]] = {}
        #: per-function tier overrides (function name -> tier)
        self._tier_overrides: Dict[str, str] = {}
        #: statistics: per-function call counts (profiling substrate)
        self.call_counts: Dict[str, int] = {}
        #: the engine's one telemetry: the ambient one while a
        #: ``repro.obs.trace`` is active, else its own sinkless one
        #: (counts, records nothing).  ``flight=True`` attaches an
        #: always-on production telemetry instead: a bounded
        #: flight-recorder ring plus percentile histograms, cheap enough
        #: to leave on in ``tiered``/``speculative`` deployments
        #: (the ledger's ``obs.flight_ratio`` measures what it costs)
        if telemetry is not None:
            self.telemetry = telemetry
        elif flight:
            self.telemetry = production_telemetry()
        else:
            ambient = ambient_telemetry()
            self.telemetry = (ambient if ambient.enabled
                              else Telemetry(tracer=None))
        #: the single stats surface: cache/tier counters and event
        #: counts are one namespace, the telemetry's registry
        self.metrics = self.telemetry.metrics
        #: cached IR analyses (liveness/dominators/loops/ranges): the
        #: process-wide manager, so OSR insertion, speculation, the
        #: transforms and code generation all hit one cache
        self.analysis = default_manager()
        #: tier-up machinery
        self.profiler = TierProfiler(call_threshold, backedge_threshold)
        #: the speculation manager, created lazily by
        #: :meth:`_init_speculation` (the first speculating dispatcher);
        #: None while the engine never speculates
        self.spec_manager = None
        self._install_default_natives()

    # -- read-only counter views over the metrics registry ---------------------

    @property
    def compile_count(self) -> int:
        """Number of functions compiled (Q3-style accounting)."""
        return self.metrics.counter("engine.compile")

    @property
    def jit_cache_hits(self) -> int:
        return self.metrics.counter(EV.JIT_CACHE_HIT)

    @property
    def jit_cache_misses(self) -> int:
        return self.metrics.counter(EV.JIT_CACHE_MISS)

    @property
    def tier_promotions(self) -> int:
        return self.metrics.counter(EV.TIER_PROMOTE)

    @property
    def decode_fallbacks(self) -> int:
        return self.metrics.counter(EV.DECODE_BAILOUT)

    # -- natives -----------------------------------------------------------------

    def _install_default_natives(self) -> None:
        engine = self

        def native_malloc(size):
            return (MemoryBuffer(size, "heap"), 0)

        # both check each range (and that its buffer is live) before
        # they touch a byte: a buffer's length never changes
        def native_memcpy(dst, src, n):
            db, do = dst
            sb, so = src
            sb.check(so, n)
            db.write(do, sb.data[so:so + n])
            copy_cells(dst, src, n)
            return dst

        def native_memset(dst, value, n):
            db, do = dst
            db.check(do, n)
            db.write(do, bytes([value & 0xFF]) * n)
            drop_cells(dst, n)
            return dst

        def native_putchar(ch):
            engine.stdout.putchar(ch)
            return ch

        def native_print_i64(value):
            engine.stdout.write(str(value).encode())
            return None

        def native_print_f64(value):
            engine.stdout.write(f"{value:.9f}".encode())
            return None

        def native_puts(pointer):
            buf, off = pointer
            buf.check(off, 0)  # freed, null or below the buffer: faults
            end = buf.data.find(0, off)
            if end < 0:
                raise MemoryFault(f"puts: no NUL in {buf.label!r} from "
                                  f"offset {off}")
            engine.stdout.write(bytes(buf.data[off:end]))
            engine.stdout.putchar(10)
            return 0

        self.add_native("malloc", native_malloc)
        self.add_native("free", free)
        self.add_native("memcpy", native_memcpy)
        self.add_native("memset", native_memset)
        self.add_native("putchar", native_putchar)
        self.add_native("print_i64", native_print_i64)
        self.add_native("print_f64", native_print_f64)
        self.add_native("puts", native_puts)

        self.add_native("sqrt", math.sqrt)
        self.add_native("sin", math.sin)
        self.add_native("cos", math.cos)
        self.add_native("exp", lambda x: math.exp(min(x, 700.0)))
        self.add_native("log", lambda x: math.log(x) if x > 0 else float("-inf"))
        self.add_native("pow", fpow)
        self.add_native("floor", lambda x: float(math.floor(x)))
        self.add_native("fabs", abs)

    def add_native(self, name: str, callable: Callable) -> NativeHandle:
        """Expose a host Python function to IR code under ``name``."""
        handle = NativeHandle(name, callable)
        self._natives[name] = handle
        return handle

    def remove_native(self, name: str) -> None:
        """Unbind ``name``: code compiled from now on cannot resolve it,
        while code already holding its host function keeps calling it."""
        with self._lock:
            self._natives.pop(name, None)
            self._compiled.pop(name, None)
            self._patched.pop(name, None)

    # -- globals ------------------------------------------------------------------

    def global_pointer(self, gv: GlobalVariable) -> tuple:
        """Materialized storage for a global variable (lazily created)."""
        existing = self._globals.get(gv.name)
        if existing is not None:
            return existing
        with self._lock:
            existing = self._globals.get(gv.name)
            if existing is not None:
                return existing
            size = T.size_of(gv.value_type)
            buf = MemoryBuffer(size, f"global.{gv.name}")
            pointer = (buf, 0)
            init = gv.initializer
            if init is not None:
                self._init_global(gv.value_type, pointer, init)
            # publish only after initialization so a concurrent reader
            # never observes half-initialized storage
            self._globals[gv.name] = pointer
            return pointer

    def _init_global(self, ty: T.Type, pointer: tuple, init) -> None:
        buf, off = pointer
        if isinstance(init, ConstantString):
            buf.write(off, init.data)
        elif isinstance(init, (ConstantInt, ConstantFloat)):
            store_scalar(ty, pointer, init.value)
        elif isinstance(init, ConstantArray):
            assert isinstance(ty, T.ArrayType)
            stride = T.size_of(ty.element)
            for index, element in enumerate(init.elements):
                self._init_global(ty.element, (buf, off + index * stride), element)
        else:
            raise Trap(f"unsupported global initializer {init!r}")

    # -- function resolution ----------------------------------------------------------

    def handle_for(self, func: Function) -> FunctionHandle:
        """The runtime value of taking ``func``'s address."""
        handle = self._handles.get(func.name)
        if handle is None or handle.function is not func:
            with self._lock:
                handle = self._handles.get(func.name)
                if handle is None or handle.function is not func:
                    handle = FunctionHandle(self, func)
                    self._handles[func.name] = handle
        return handle

    def get_compiled(self, func: Function) -> Callable:
        """Executable for a function, compiling on first request."""
        cached = self._compiled.get(func.name)
        if cached is not None:
            return cached
        with self._lock:
            cached = self._compiled.get(func.name)
            if cached is not None:
                return cached
            return self._compile_and_install(func)

    def _compile_and_install(self, func: Function) -> Callable:
        # slow path; the caller holds the engine lock
        if func.is_declaration:
            native = self._natives.get(func.name)
            if native is None:
                raise Trap(f"unresolved external symbol @{func.name}")
            # callers' slots hold the host function itself: the handle's
            # ``__call__`` would be one more frame per call
            self._compiled[func.name] = native.callable
            return native.callable
        tier = self._tier(func)
        policy = POLICIES[tier]
        if not policy.promote:
            compiled = self._baseline(func, policy.baseline)
        else:
            compiled = self._make_dispatcher(func, tier)
        compiled = self._osr_fire_probe(func, compiled)
        self.metrics.inc("engine.compile")
        self._compiled[func.name] = compiled
        return compiled

    def _osr_fire_probe(self, func: Function, compiled: Callable) -> Callable:
        """``compiled`` as callers of ``func`` should reach it.  A
        resolved-OSR continuation is entered straight from the osr
        block's tail call, so it gets a probe that makes the transfer
        observable; the probe reads ``engine.telemetry`` per *fire*, so
        a sink attached after warm-up still observes it."""
        if func.attributes.get("osr.entrypoint") != "resolved":
            return compiled
        engine = self

        def fired(*args):
            engine.telemetry.event(EV.OSR_FIRE, kind="resolved",
                                   continuation=func.name)
            return compiled(*args)

        return _mark_thunk(fired, "osrfire", func, wrapped=compiled)

    def _tier(self, func: Function) -> str:
        return self._tier_overrides.get(func.name, self.tier)

    def _baseline(self, func: Function, kind: str,
                  profiled: bool = False) -> Callable:
        """The leaf callable running ``func`` in one tier, no promotion:
        what a non-promoting preset installs bare and what the
        dispatcher runs while its box is empty.

        ``decoded``: functions the decoder cannot lower fall back to the
        tree-walker (counted in ``decode_fallbacks``).  Like the JIT
        tier, the decoded form is a snapshot of the current body:
        rewrite the IR and call :meth:`invalidate` to re-decode.  Each
        install decodes afresh (an install follows only a first call or
        an :meth:`invalidate`); ``_decoded`` keeps the latest decode for
        ``stats_snapshot()``'s ``fusion`` and ``frames`` blocks.

        ``profiled`` (the dispatcher's baseline) charges back edges to
        the function's profile.
        """
        if kind == "jit":
            return compile_function(func, self)
        if kind == "decoded":
            from .decode import DecodeError, decode_function

            try:
                decoded = decode_function(func, self)
            except DecodeError as error:
                self.telemetry.event(EV.DECODE_BAILOUT, function=func.name,
                                     reason=str(error))
                kind = "interp"
            else:
                self._decoded[func.name] = decoded
                self.metrics.gauge(EV.DECODE_FRAME_SLOTS,
                                   decoded.frame_slots)
                fusion = decoded.fusion
                if (fusion["cmp_br"] or fusion["op_chain"]
                        or fusion["phi_copy"]):
                    self.telemetry.event(
                        EV.DECODE_FUSE, function=func.name,
                        cmp_br=fusion["cmp_br"], op_chain=fusion["op_chain"],
                        phi_copy=fusion["phi_copy"])
        if kind == "interp":
            from .interpreter import Interpreter

            def run(*args):
                return Interpreter(self).run_function(func, list(args))

            return _mark_thunk(run, "interp", func)

        if not profiled:
            run = decoded.run

            def run_fast(*args):
                return run(args)

            return _mark_thunk(run_fast, "decoded", func, wrapped=run)

        profile = self.profiler.profile_for(func.name)

        def run_counted(*args):
            return decoded.run_counted(args, profile)

        return _mark_thunk(run_counted, "decoded", func)

    def _make_dispatcher(self, func: Function, tier: str) -> Callable:
        """The one dispatcher of every promoting policy: the path a call
        takes before promotion — count the call, take the
        :meth:`_promote` step once a threshold trips, stay on the
        baseline tier otherwise.  A publication (:meth:`_route`) takes
        the dispatcher off the call path: callers' slots, ``engine.run``
        and the function handle then reach the published code directly,
        and only a caller that fetched the dispatcher earlier still goes
        through it, to whatever is in the function's :class:`PublishBox`.

        Promotion is checked at call boundaries; the backedge counter
        (fed by the decoded tier's profiled loop) lets a function that is
        called once but loops hot promote on its *next* call — replacing
        a loop mid-flight is the OSR machinery's job, not the tier-up's.
        Invalidation replaces the whole dispatcher: a rewritten body
        starts over with a fresh box, and with the same profile object,
        demoted in place to fresh counters.
        """
        name = func.name
        policy = POLICIES[tier]
        profiler = self.profiler
        profile = profiler.profile_for(name)
        box = self._boxes[name] = PublishBox(self.compile_generation(name))
        baseline = self._baseline(func, policy.baseline, profiled=True)
        if policy.speculate:
            # argument feedback starts with the first cold call, so a
            # promoted function can specialize as soon as it is warm
            self._init_speculation()
            unrecorded = baseline

            def baseline(*args):
                profile.record_args(args)
                return unrecorded(*args)

        promote = self._promote

        def cold(*args):
            profile.calls += 1
            if not box.requested and profiler.should_promote(profile):
                promote(func, profile, box)
                published = box.value
                if published is not None:
                    return published(*args)
            return baseline(*args)

        def dispatch(*args):
            published = box.value
            if published is not None:
                return published(*args)
            return cold(*args)

        return _mark_thunk(dispatch, tier, func)

    def _promote(self, func: Function, profile, box: PublishBox) -> None:
        """The one promote step, on the calling thread: latch the
        request, obtain the artifact (:func:`~repro.vm.jit.acquire_artifact`
        — memory cache, disk cache, code generation) and :meth:`_publish`
        it.  Whatever the outcome, the box tells the dispatcher what to
        run.  Nothing is published when an :meth:`invalidate` outran the
        compile (``stale-generation``) or code generation raised
        :class:`JITError` (``jit-error: ...``): a ``compile.discard``
        event carries the reason, and the latched box keeps the function
        on its baseline tier with no retry."""
        # benign race: two threads may both pass the latch check; the
        # second finds the box filled and discards
        box.requested = True
        tel = self.telemetry
        call_hot = profile.calls >= self.profiler.call_threshold
        tel.event(
            EV.PROFILE_CALL_HOT if call_hot else EV.PROFILE_BACKEDGE_HOT,
            function=func.name, calls=profile.calls,
            backedges=profile.backedges)
        reason = "stale-generation"
        if self.compile_generation(func.name) == box.generation:
            tel.event(EV.COMPILE_START, function=func.name)
            try:
                artifact = acquire_artifact(func, self)
            except JITError as error:
                reason = f"jit-error: {error}"
            else:
                if self._publish(func, box, profile, artifact):
                    tel.event(EV.COMPILE_INSTALL, function=func.name,
                              code_version=func.code_version,
                              generation=box.generation)
                    return
        tel.event(EV.COMPILE_DISCARD, function=func.name, reason=reason)

    # -- persistent code cache ----------------------------------------------------

    def disk_lookup(self, func: Function):
        """Consult the attached disk cache for ``func``'s artifact.

        Returns the deserialized :class:`~repro.vm.jit.CompiledCode` or
        None (no cache attached, key absent, or the entry was rejected).
        Emits ``diskcache.hit``/``diskcache.miss`` so a warm start is
        visible in traces and metrics.
        """
        cache = self.disk_cache
        if cache is None:
            return None
        artifact = cache.load(func, self.module)
        if artifact is not None:
            self.telemetry.event(EV.DISKCACHE_HIT, function=func.name,
                                 code_version=func.code_version)
        else:
            self.telemetry.event(EV.DISKCACHE_MISS, function=func.name)
        return artifact

    def disk_store(self, func: Function, artifact) -> None:
        """Write a freshly generated artifact through to the disk cache
        (no-op without one); ``acquire_artifact``'s last step."""
        cache = self.disk_cache
        if cache is not None and cache.store(func, artifact):
            self.telemetry.event(EV.DISKCACHE_WRITE, function=func.name,
                                 code_version=func.code_version)

    def _publish(self, func: Function, box: PublishBox, profile,
                 artifact) -> bool:
        """Atomically install a promotion's compiled ``artifact`` into
        ``box`` — the one publish routine, called by :meth:`_promote`.

        Returns False — the promotion then discards — unless, under the
        engine lock, the box's generation stamp still matches the
        function's compile generation (no :meth:`invalidate` landed
        since the dispatcher was made, e.g. from another thread while
        this one compiled), the artifact still matches the live body
        *and* the box is still empty.  A speculating policy publishes
        the code behind the speculation manager's feedback stage.
        """
        with self._lock:
            if (self.compile_generation(func.name) != box.generation
                    or not artifact.matches(func)
                    or box.value is not None):
                return False
            compiled = artifact.instantiate(self, func)
            if POLICIES[self._tier(func)].speculate:
                compiled = self.spec_manager.on_promote(func, compiled)
            self._route(func, box, compiled)  # the atomic publish
            # stamp the profile whose counters tripped and report
            profile.promoted_version = func.code_version
            self.telemetry.event(
                EV.TIER_PROMOTE, function=func.name,
                code_version=func.code_version,
                calls=profile.calls, backedges=profile.backedges)
            return True

    def republish(self, func: Function, stage: Callable) -> bool:
        """Publish ``stage`` *over* ``func``'s compiled code: how the
        speculation manager re-points a call boundary (a specialization,
        a sibling, the plain code again once pinned).  Routed like a
        promotion (:meth:`_route`), so JIT'd callers, ``engine.run`` and
        function pointers call ``stage`` directly from then on.  False,
        and nothing changes, when there is nothing to go above: no
        dispatcher, or a box still empty (an :meth:`invalidate` swept
        the published one).
        """
        with self._lock:
            box = self._boxes.get(func.name)
            if box is None or box.value is None:
                return False
            self._route(func, box, stage)
            return True

    def _route(self, func: Function, box: PublishBox,
               code: Callable) -> None:
        """Make ``code`` what every call of ``func`` reaches — the one
        routine behind :meth:`_publish` and :meth:`republish`, run under
        the engine lock.  ``code`` goes into the box (for a caller that
        still holds the dispatcher), into ``_compiled`` (so
        :meth:`get_compiled`, :meth:`run` and fresh lazy trampolines
        hand it out) and into every caller slot a trampoline patched
        (``_patched``: the paper's function-address table), and the
        function handle re-resolves on its next call.  A promoted call
        therefore runs with no dispatcher frame; :meth:`invalidate`
        turns the slots back into trampolines.  A resolved-OSR
        continuation's code goes behind the fire probe first, as its
        dispatcher did, so fires stay observable."""
        box.value = code
        code = self._osr_fire_probe(func, code)
        self._compiled[func.name] = code
        for namespace, slot, _owner in self._patched.get(func.name, ()):
            namespace[slot] = code
        handle = self._handles.get(func.name)
        if handle is not None:
            handle.invalidate()

    def compile_generation(self, name: str) -> int:
        """Per-function compile generation: bumped by :meth:`invalidate`,
        stamped into :class:`PublishBox` at dispatcher creation, and
        re-checked (under the engine lock) by :meth:`_publish`."""
        return self._generations.get(name, 0)

    # -- continuations ------------------------------------------------------------

    def continuation(self, key: Hashable, depends: Sequence[Function],
                     build: Callable[[], Callable]) -> Callable:
        """The one continuation store: the callable an exit path enters
        for ``key``, made by ``build()`` on a miss and served while the
        compile generation of every function in ``depends`` is the one
        stamped before the build, so :meth:`invalidate` of any retires
        it.  As in :meth:`_publish`, the build runs outside the lock and
        one racing an ``invalidate()`` is returned but never installed."""
        entry = self._continuations.get(key)
        if entry is not None and self._current(entry[1]):
            return entry[0]
        stamps = {f.name: self.compile_generation(f.name) for f in depends}
        code = build()
        with self._lock:
            if self._current(stamps):
                self._continuations[key] = (code, stamps)
        return code

    def _current(self, stamps: Dict[str, int]) -> bool:
        return all(self._generations.get(name, 0) == generation
                   for name, generation in stamps.items())

    def drop_continuations(self, *functions: Function) -> None:
        """Retire every stored continuation depending on ``functions``."""
        names = {f.name for f in functions}
        with self._lock:
            self._continuations = {
                key: entry for key, entry in self._continuations.items()
                if names.isdisjoint(entry[1])}

    def continuations(self) -> Dict[Hashable, Callable]:
        """The store's live entries: key -> the callable it serves."""
        return {key: entry[0]
                for key, entry in dict(self._continuations).items()}

    # -- speculation --------------------------------------------------------------

    def _init_speculation(self) -> None:
        """Create the speculation manager (idempotent).

        Imported lazily so engines that never speculate pay nothing and
        the vm package keeps no import-time dependency on repro.spec.
        """
        if self.spec_manager is None:
            from ..spec import SpeculationManager

            self.spec_manager = SpeculationManager(self)

    def set_tier(self, func: Function, tier: str) -> None:
        """Pin one function to a tier (mixed-mode execution).

        ``set_tier(f, "interp")`` makes ``f`` run in the reference
        interpreter while the rest of the module stays JIT-compiled —
        e.g. to model deoptimization *into an interpreter*, the design
        the paper contrasts OSRKit's continuation-function approach with.
        """
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}")
        self._tier_overrides[func.name] = tier
        self.invalidate(func)

    def invalidate(self, func: Function) -> None:
        """Forget the compiled form of ``func`` (it will be recompiled).

        Called after instrumentation or replacement — the moral
        equivalent of MCJIT module re-finalization for that function.
        Bumps the function's ``code_version`` so the cross-engine code
        cache and the decoded tier drop their stale artifacts too, and
        demotes the function's :class:`FunctionProfile` (call/backedge
        counters reset) so the rewritten body re-earns its promotion
        instead of instantly re-tiering on stale counters.

        Runs under the engine lock and sweeps *every* per-function cache:
        the compiled map, the decoded cache, the continuation store, the
        profiler, trampoline-patched caller namespaces (and the records
        of the slots its own dropped code owned), the compile generation
        (bumped, so a promotion of the old body compiling on another
        thread can never install), the function handle, and the
        speculation manager (which retires the function's specialized
        versions: their code is in the continuation store, stamped with
        this function's generation).
        """
        with self._lock:
            # stamp first: any in-flight compile of the old body becomes
            # unpublishable before anything else is swept
            self._generations[func.name] = (
                self.compile_generation(func.name) + 1)
            # the version bump routes through the analysis manager so
            # cached liveness/domtree/loop results retire with the code
            self.analysis.invalidate(func)
            self._compiled.pop(func.name, None)
            self._decoded.pop(func.name, None)
            self._boxes.pop(func.name, None)
            self.drop_continuations(func)
            tel = self.telemetry
            tel.event(EV.ENGINE_INVALIDATE, function=func.name,
                      code_version=func.code_version)
            profile = self.profiler._profiles.get(func.name)
            if profile is not None and profile.promoted:
                tel.event(EV.TIER_DEMOTE, function=func.name,
                          calls=profile.calls, backedges=profile.backedges)
            self.profiler.invalidate(func.name)
            handle = self._handles.get(func.name)
            if handle is not None:
                handle.function = func
                handle.invalidate()
            # the dropped code's own slots: no publication need reach
            # them again, and a record would keep its namespace alive
            self._patched = {
                callee: kept for callee, records in self._patched.items()
                if (kept := [record for record in records
                             if record[2] != func.name])}
            # repair namespaces direct-patched by lazy trampolines: point
            # the slot back at a fresh trampoline, otherwise those call
            # sites would keep invoking the dropped compiled body forever
            for namespace, slot, owner in self._patched.pop(func.name, ()):
                namespace[slot] = self.lazy_trampoline(
                    func, namespace, slot, owner)
            if self.spec_manager is not None:
                self.spec_manager.on_invalidate(func)

    def lazy_trampoline(self, func: Function, namespace: Dict[str, Any],
                        slot: str, owner: Optional[str] = None) -> Callable:
        """A callable that compiles ``func`` on first call and patches
        ``namespace[slot]`` so subsequent calls are direct — MCJIT-style
        lazy compilation stubs.  ``owner`` names the function whose
        code ``namespace`` belongs to; invalidating it drops the slot's
        record.  A declaration already bound to a native gets its host
        function straight away: nothing compiles or publishes over it."""
        if func.is_declaration:
            native = self._natives.get(func.name)
            if native is not None:
                return native.callable
        engine = self

        def trampoline(*args):
            compiled = engine.get_compiled(func)
            with engine._lock:
                # only patch if the function has not been redirected
                # since; record the patched slot so a publication can
                # rewrite it and invalidate() repair it (else the caller
                # would keep a direct reference to the dropped code)
                if engine._compiled.get(func.name) is compiled:
                    namespace[slot] = compiled
                    records = engine._patched.setdefault(func.name, [])
                    if not any(ns is namespace and sl == slot
                               for ns, sl, _owner in records):
                        records.append((namespace, slot, owner))
            return compiled(*args)

        return _mark_thunk(trampoline, "trampoline", func)

    # -- calling in ------------------------------------------------------------------------

    def call(self, func: Function, args: List[Any]):
        """Call an IR function (by object) with host argument values: the
        top-level entry.  An integer argument is wrapped into its
        parameter type's canonical range, as a value computed in IR
        would be.

        Each call counts once in :attr:`call_counts`, whatever tier runs
        it and however its callees are reached.  With a telemetry
        attached, its end-to-end latency folds into the
        ``engine.dispatch`` timer — histogram-backed, so ``p50/p99``
        dispatch latency comes straight out of
        ``stats_snapshot()["timers"]``.  A :class:`Trap` escaping it is a
        flight-recorder anomaly: the ring is dumped before the exception
        propagates, preserving the events that led up to it.  On a
        sinkless telemetry the extra cost is one attribute check.
        """
        args = list(args)
        for index, param in enumerate(func.args[:len(args)]):
            if isinstance(param.type, T.IntType):
                args[index] = param.type.wrap(args[index])
        self.call_counts[func.name] = self.call_counts.get(func.name, 0) + 1
        tel = self.telemetry
        if not tel.enabled:
            return self._call(func, args)
        start = time.perf_counter()
        try:
            return self._call(func, args)
        except Trap:
            flight = tel.flight
            if flight is not None:
                flight.anomaly("uncaught-trap")
            raise
        finally:
            self.metrics.record_time(EV.ENGINE_DISPATCH,
                                     time.perf_counter() - start)

    def _call(self, func: Function, args: List[Any]):
        """The bare inner entry, with arguments already canonical: how the
        decoded tier, the tree-walker and McVM's feval dispatch reach a
        callee.  It counts and times nothing, as a JIT'd caller calling
        its callee's slot does not."""
        return self.get_compiled(func)(*args)

    def call_value(self, target, args: List[Any]):
        """Call a runtime callee value (function handle, native, ...)."""
        if callable(target):
            return target(*args)
        raise Trap(f"call of non-callable value {target!r}")

    def run(self, name: str, *args):
        """Convenience: :meth:`call` a module function by name."""
        return self.call(self.module.get_function(name), args)

    # -- statistics ---------------------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        """The engine's metrics snapshot plus the per-function profiles.

        This is the one stats surface: counters, gauges and timers from
        :attr:`metrics` (shared with any attached telemetry) and the
        :class:`TierProfiler`'s per-function hotness state.
        """
        snapshot = self.metrics.snapshot()
        snapshot["profiles"] = self.profiler.snapshot()
        snapshot["analysis"] = self.analysis.stats()
        if self.disk_cache is not None:
            snapshot["diskcache"] = self.disk_cache.stats()
        snapshot["fusion"] = {
            name: dict(decoded.fusion)
            for name, decoded in list(self._decoded.items())
        }
        snapshot["frames"] = {
            name: decoded.frame_slots
            for name, decoded in list(self._decoded.items())
        }
        if self.spec_manager is not None:
            snapshot["speculation"] = self.spec_manager.stats()
        flight = self.telemetry.flight
        if flight is not None:
            snapshot["flight"] = flight.stats()
        return snapshot
