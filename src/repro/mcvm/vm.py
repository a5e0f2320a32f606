"""The mini-McVM facade.

Owns the IIR function registry, the type-inference engine, the IIR→IR
compiler with type-based function versioning, the execution engine, the
feval dispatcher, and the OSR-based feval optimizer, whose continuations
live in the engine's continuation store.

Execution modes (the Q4 configurations):

* ``interp``      — IIR interpreter only (McVM's fallback tier);
* ``base``        — JIT-compiled, feval through the generic dispatcher;
* ``osr``         — like ``base`` plus open OSR points injected in
                    feval loops; when a loop gets hot the IIR-level
                    optimizer kicks in (the paper's new approach).

"Direct (by hand)" is simply ``base`` over a source whose feval calls
were textually replaced — see :mod:`repro.mcvm.programs`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.function import Module
from ..transform import optimize_function, promote_memory_to_registers
from ..vm import ExecutionEngine
from . import mcast as M
from .compiler import CompiledVersion, IIRCompiler
from .feval import (
    FevalOSRPoint,
    find_feval_opportunities,
    insert_feval_osr_point,
)
from .interpreter import IIRInterpreter, McRuntimeError
from .mctypes import BOXED, DOUBLE, HANDLE, TypeInference, TypeInfo
from .parser import parse_matlab
from .runtime import (McFunctionHandleValue, install_runtime, mc_box,
                      unbox_to_float)

#: short class codes used in version names, e.g. odeEuler__hddd
_CLASS_CODE = {DOUBLE: "d", HANDLE: "h", BOXED: "b"}


class McVM:
    """A self-contained MATLAB-subset virtual machine."""

    def __init__(self, source: str, enable_osr: bool = False,
                 osr_threshold: int = 2, telemetry=None):
        self.functions: Dict[str, M.McFunction] = {}
        for function in parse_matlab(source):
            if function.name in self.functions:
                raise McRuntimeError(f"duplicate function {function.name!r}")
            self.functions[function.name] = function
        self.enable_osr = enable_osr
        self.osr_threshold = osr_threshold
        self.module = Module("mcvm")
        self.engine = ExecutionEngine(self.module, tier="jit",
                                      telemetry=telemetry)
        #: the engine's telemetry (explicit or ambient) — feval events
        #: (``feval.specialize``/``feval.cache_hit``/``feval.guard_fail``)
        #: land here alongside the engine's own
        self.telemetry = self.engine.telemetry
        install_runtime(self.engine, self)
        self.inference = TypeInference(call_oracle=self._infer_oracle)
        self.interpreter = IIRInterpreter(self.functions)
        #: (name, arg_classes) -> CompiledVersion
        self._versions: Dict[Tuple[str, Tuple[str, ...]], CompiledVersion] = {}
        self._inference_stack: set = set()
        #: OSR points injected so far
        self.osr_points: List[FevalOSRPoint] = []
        self.stats: Dict[str, int] = {
            "versions_compiled": 0,
            "feval_dispatches": 0,
            "feval_optimizations": 0,
            "feval_cache_hits": 0,
            "feval_deopts": 0,
            "osr_points": 0,
        }

    # -- inference plumbing ----------------------------------------------------

    def _infer_oracle(self, name: str, arg_classes: Tuple[str, ...]) -> str:
        """Return class of a direct call — compiles/infers the callee
        version on demand; recursion falls back to BOXED."""
        function = self.functions.get(name)
        if function is None:
            raise McRuntimeError(f"undefined function {name!r}")
        key = (name, tuple(arg_classes))
        if key in self._inference_stack:
            return BOXED
        self._inference_stack.add(key)
        try:
            return self.inference.infer(function, arg_classes).return_class
        finally:
            self._inference_stack.discard(key)

    # -- compilation -------------------------------------------------------------

    def compile_iir_raw(self, function: M.McFunction, info: TypeInfo,
                        ir_name: str,
                        forced_return_class: Optional[str] = None,
                        into=None) -> CompiledVersion:
        """Lower inferred IIR to alloca-form IR (no mem2reg, no OSR)."""
        compiler = IIRCompiler(
            self.module,
            version_oracle=self._version_oracle,
            object_table=self.engine.object_table,
        )
        self.stats["versions_compiled"] += 1
        return compiler.compile(function, info, ir_name,
                                forced_return_class=forced_return_class,
                                into=into)

    def _version_oracle(self, name: str,
                        arg_classes: Tuple[str, ...]) -> CompiledVersion:
        return self.compile_version(name, arg_classes)

    def compile_version(self, name: str, arg_classes: Tuple[str, ...]
                        ) -> CompiledVersion:
        """Get-or-compile the specialization of ``name`` for the given
        argument classes (McVM's function versioning)."""
        key = (name, tuple(arg_classes))
        cached = self._versions.get(key)
        if cached is not None:
            return cached
        function = self.functions.get(name)
        if function is None:
            raise McRuntimeError(f"undefined function {name!r}")
        info = self.inference.infer(function, arg_classes)
        code = "".join(_CLASS_CODE[c] for c in arg_classes)
        ir_name = self.module.unique_name(
            f"{name}__{code}" if code else name
        )
        # register a shell version *before* generating the body so that
        # recursive MATLAB functions (direct or mutual) can call their own
        # in-flight version without re-entering compilation
        shell = IIRCompiler.make_shell(info, ir_name, function.params)
        self.module.add_function(shell)
        compiled = CompiledVersion(shell, info, {}, {})
        self._versions[key] = compiled
        body = self.compile_iir_raw(function, info, ir_name, into=shell)
        compiled.var_slots.update(body.var_slots)
        compiled.loop_headers.update(body.loop_headers)

        instrumented = False
        if self.enable_osr:
            for opportunity in find_feval_opportunities(function):
                cls = info.var_classes.get(opportunity.handle_param)
                if cls in (HANDLE, BOXED):
                    self.osr_points.append(insert_feval_osr_point(
                        self, compiled, opportunity,
                        threshold=self.osr_threshold,
                    ))
                    self.stats["osr_points"] += 1
                    instrumented = True
        if not instrumented:
            promote_memory_to_registers(compiled.ir_function)
            optimize_function(compiled.ir_function, "optimized")
            self.engine.invalidate(compiled.ir_function)
        return compiled

    # -- execution ------------------------------------------------------------------

    def dispatch_feval(self, name: str, boxed_args: Sequence[object]):
        """The default feval dispatcher: resolve the target by name,
        get/JIT its all-boxed version, call it with boxed values."""
        self.stats["feval_dispatches"] += 1
        version = self.compile_version(name, (BOXED,) * len(boxed_args))
        # all-boxed parameters: no integer to canonicalize, so the
        # engine's inner entry (``engine.call`` wraps int arguments)
        result = self.engine._call(version.ir_function, boxed_args)
        if version.info.return_class == DOUBLE:
            return mc_box(result)
        return result

    def run(self, name: str, *args: float) -> float:
        """Call a MATLAB function with scalar arguments (floats and
        ``@handle`` strings like ``"@rhs"``), returning a float."""
        values = _arguments(args)
        version = self.compile_version(name, tuple(
            HANDLE if isinstance(value, McFunctionHandleValue) else DOUBLE
            for value in values))
        result = self.engine.call(version.ir_function, values)
        if version.info.return_class == DOUBLE:
            return float(result)
        return unbox_to_float(result)

    def run_interpreted(self, name: str, *args: float) -> float:
        """Run through the IIR interpreter (the fallback tier)."""
        return unbox_to_float(self.interpreter.call(name, _arguments(args)))

    # -- cache control (Q4's JIT-vs-cached configurations) ----------------------------

    def clear_feval_caches(self) -> None:
        """Forget feval-related compiled artifacts so the next run pays
        generation again ("JIT" configurations): the continuations stored
        for the OSR'd functions, and the all-boxed dispatcher targets."""
        self.engine.drop_continuations(*(p.function for p in self.osr_points))
        for key in [k for k in self._versions if all(c == BOXED for c in k[1])
                    and k[1]]:
            self.engine.invalidate(self._versions.pop(key).ir_function)


def _arguments(args) -> List[object]:
    """The runtime values of :meth:`McVM.run`'s arguments."""
    return [McFunctionHandleValue(arg[1:])
            if isinstance(arg, str) and arg.startswith("@") else float(arg)
            for arg in args]
