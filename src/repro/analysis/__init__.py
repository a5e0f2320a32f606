"""repro.analysis — IR analyses (CFG, dominators, liveness, loops, ranges).

These are the LLVM analyses the OSR machinery consumes: liveness drives
the live-variable transfer at OSR points, dominators back the verifier and
mem2reg, loop info drives hottest-loop OSR point placement, and range
facts let both execution tiers drop wraps a dominating compare rules out.
"""

from .cfg import (
    depth_first_order,
    post_order,
    predecessor_map,
    reachable_blocks,
    remove_unreachable_blocks,
    reverse_post_order,
    split_edge,
)
from .dominators import DominatorTree, RangeFacts
from .escape import AllocaSummary, EscapeInfo
from .liveness import LivenessInfo, live_values_at
from .loops import Loop, LoopInfo
from .manager import (
    ANALYSES,
    AnalysisManager,
    PreservedAnalyses,
    analysis_stamp,
    default_manager,
    resolve_manager,
)

__all__ = [
    "ANALYSES",
    "AnalysisManager",
    "PreservedAnalyses",
    "analysis_stamp",
    "default_manager",
    "resolve_manager",
    "AllocaSummary",
    "DominatorTree",
    "EscapeInfo",
    "LivenessInfo",
    "live_values_at",
    "Loop",
    "LoopInfo",
    "RangeFacts",
    "depth_first_order",
    "post_order",
    "predecessor_map",
    "reachable_blocks",
    "remove_unreachable_blocks",
    "reverse_post_order",
    "split_edge",
]
