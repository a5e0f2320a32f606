"""repro.experiments — drivers reproducing every figure and table.

* Figure 8 (:mod:`fig8`) — intrusiveness of a never-firing OSR point.
* Q1 (:mod:`q1`) — Figures 10/11: never-firing OSR point overhead.
* Q2 (:mod:`q2`) — Table 2: cost of an OSR transition.
* Q3 (:mod:`q3`) — Table 3: cost of generating the OSR machinery.
* Q4 (:mod:`q4`) — Table 4: feval optimization speedups in mini-McVM.
* :mod:`ablation` — DESIGN.md Section 5: OSRKit vs McOSR, stub vs inline.
"""

from .ablation import AblationRow, format_ablation, run_ablation
from .fig8 import Fig8Row, format_fig8, run_fig8
from .q1 import Q1Row, format_q1, instrument_never_firing, run_q1
from .q2 import Q2Row, format_q2, run_q2
from .q3 import (
    Q3Row,
    Q3StateRow,
    format_q3,
    format_q3_state,
    run_q3,
    run_q3_state,
)
from .q4 import Q4Row, format_q4, run_q4
from .sites import entry_osr_location, hottest_loop, loop_osr_location

__all__ = [
    "run_q1", "format_q1", "Q1Row", "instrument_never_firing",
    "run_q2", "format_q2", "Q2Row",
    "run_q3", "format_q3", "Q3Row",
    "run_q3_state", "format_q3_state", "Q3StateRow",
    "run_q4", "format_q4", "Q4Row",
    "run_fig8", "format_fig8", "Fig8Row",
    "run_ablation", "format_ablation", "AblationRow",
    "hottest_loop", "loop_osr_location", "entry_osr_location",
]
