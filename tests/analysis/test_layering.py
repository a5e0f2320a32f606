"""Layering guard: analyses are constructed only inside ``repro.analysis``.

Every consumer — transforms, OSR insertion, continuation generation,
speculation, the engine, the McVM lowering — must pull liveness,
dominator trees and loop forests through the :class:`AnalysisManager`
so results are cached and invalidation stays centralized.  A direct
``LivenessInfo(func)`` at a use site silently bypasses the cache; this
test turns that into a failure with a file:line pointer.
"""

import re
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent

#: direct constructions (and the construct-and-query helper) that must
#: stay confined to the analysis package itself
FORBIDDEN = re.compile(
    r"\b(LivenessInfo|DominatorTree|LoopInfo|EscapeInfo"
    r"|live_values_at)\s*\("
)


def test_no_direct_analysis_construction_outside_analysis_package():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT)
        if relative.parts[0] == "analysis":
            continue
        for lineno, line in enumerate(
                path.read_text().splitlines(), start=1):
            stripped = line.split("#", 1)[0]
            if FORBIDDEN.search(stripped):
                offenders.append(f"{relative}:{lineno}: {line.strip()}")
    assert not offenders, (
        "direct analysis construction outside repro.analysis "
        "(route these through AnalysisManager):\n" + "\n".join(offenders)
    )
