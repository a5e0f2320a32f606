"""repro.vm — execution engine (MCJIT substitute).

Runs repro IR through interchangeable tiers: a tree-walking reference
interpreter (the semantic oracle), a pre-decoded closure interpreter
with superinstruction fusion, and a JIT that lowers IR to a Python AST
— with profile-driven tier-up from the decoded interpreter to the JIT
as the default mixed mode.  Provides lazy compilation, a cross-engine
compiled-code cache, native symbol resolution, global storage, and the
object table that OSR stubs use to carry IR objects through
``inttoptr`` constants.

Tier strings are presets of :data:`POLICIES`.  The promoting ones share
one dispatcher over the function's :class:`PublishBox` and one
compile-and-publish path, run inline (``tiered``) or on a
:class:`CompileQueue` worker so hot calls never stall on the JIT
(``tiered-bg``); the generation-stamped publish loses to a racing
``invalidate()``.  ``speculative`` republishes guarded specializations
over the promoted code.
"""

from .. import lazy_exports
from .engine import POLICIES, TIERS, ExecutionEngine, ObjectTable
from .jit import CompiledCode, JITError, codegen_function, compile_function
from .profile import FunctionProfile, TierProfiler
from .runtime import (
    HANDLE_HEAP,
    NULL,
    FunctionHandle,
    MemoryBuffer,
    NativeHandle,
    OutputBuffer,
    Trap,
    is_null,
    load_scalar,
    scalar_accessors,
    store_scalar,
)

# the tiers a ``jit`` engine never runs load when a policy first needs
# them, as the engine itself imports them
__getattr__ = lazy_exports(__name__, {
    "background": ("CompileJob", "CompileQueue", "PublishBox"),
    "decode": ("DecodedFunction", "DecodeError", "decode_function"),
    "interpreter": ("Interpreter", "StepLimitExceeded"),
})

__all__ = [
    "ExecutionEngine",
    "ObjectTable",
    "TIERS",
    "POLICIES",
    "CompileJob",
    "CompileQueue",
    "PublishBox",
    "Interpreter",
    "Trap",
    "StepLimitExceeded",
    "JITError",
    "CompiledCode",
    "codegen_function",
    "compile_function",
    "DecodeError",
    "DecodedFunction",
    "decode_function",
    "FunctionProfile",
    "TierProfiler",
    "FunctionHandle",
    "NativeHandle",
    "MemoryBuffer",
    "OutputBuffer",
    "NULL",
    "HANDLE_HEAP",
    "is_null",
    "load_scalar",
    "scalar_accessors",
    "store_scalar",
]
