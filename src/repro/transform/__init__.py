"""repro.transform — IR transformation passes.

The LLVM-pass substitutes the OSR machinery interacts with: cloning
(continuation generation), mem2reg (the paper's "unoptimized" tier),
DCE/simplify-CFG (dead old-entry elision in continuations), constant
folding and inlining (the isord comparator specialization)."""

from .. import lazy_exports
from .constfold import fold_constants
from .dce import (
    eliminate_dead_blocks,
    eliminate_dead_code,
    eliminate_dead_stores,
)
from .mem2reg import promote_memory_to_registers
from .passmanager import (
    PASSES,
    PIPELINES,
    PassManager,
    optimize_function,
)
from .scalarize import scalarize_aggregates
from .simplifycfg import simplify_cfg

# the OSR machinery's tools, which no pipeline runs, load on first use
__getattr__ = lazy_exports(__name__, {
    "clone": ("ValueMap", "clone_function", "clone_instruction"),
    "inline": ("InlineError", "inline_call", "inline_known_indirect_calls"),
    "ssaupdater": ("SSAUpdater",),
})

__all__ = [
    "ValueMap",
    "clone_function",
    "clone_instruction",
    "fold_constants",
    "eliminate_dead_blocks",
    "eliminate_dead_code",
    "eliminate_dead_stores",
    "InlineError",
    "inline_call",
    "inline_known_indirect_calls",
    "promote_memory_to_registers",
    "PassManager",
    "PASSES",
    "PIPELINES",
    "optimize_function",
    "scalarize_aggregates",
    "simplify_cfg",
    "SSAUpdater",
]
