"""The run context every workload section drives: timed regions, result
checks, failed/attempted accounting, and the closed measurement loop.

One generator thread; ops run one after another; a child process is
waited for before the next op starts.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import clock
from .expected import Expected
from .spans import NullTracer, Tracer

#: an op is a callable taking the run context; it times its stages with
#: ``run.timed`` and checks its results with ``run.expect``
Op = Callable[["Run"], None]

_WORK_ROOT = Path(__file__).resolve().parent / ".work"
_now = time.perf_counter


class OpFailed(Exception):
    """An op returned a wrong value, a child exited non-zero, ..."""


class Run:
    def __init__(self, seed: int, expected: Optional[Expected] = None):
        self.rng = random.Random(seed)
        self.expected = expected if expected is not None else Expected.load()
        #: a ``Tracer`` while a traced pass is on (sections then also
        #: attach a ``local_telemetry`` to count ``osr.fire`` events)
        self.tracer = NullTracer()
        #: off during set-up warm-ups: regions run but leave no sample
        self.recording = True
        #: metric -> program -> samples, each ``(reference ms, wall ms)``
        self.samples: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
        self._pending: List[tuple] = []
        #: seconds per kernel unit as calibrated after the last recorded
        #: op; None when something unrecorded has run since
        self._speed: Optional[float] = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: whatever sections count along the way (exact per-layer counts)
        self.counts: Dict[str, object] = {}
        self._workdir: Optional[Path] = None

    # -- scratch space (inside the checkout; removed by close()) ----------

    def workdir(self) -> Path:
        if self._workdir is None:
            self._workdir = _WORK_ROOT / f"run-{os.getpid()}"
            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir.mkdir(parents=True)
        return self._workdir

    def close(self) -> None:
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir = None
            try:
                _WORK_ROOT.rmdir()
            except OSError:
                pass

    # -- timing -------------------------------------------------------------

    def timed(self, metric: str, program: str, fn: Callable[[], object]):
        """Time ``fn`` as one sample of ``metric`` for ``program``; the
        op's calibration (see ``attempt``) turns it into reference ms."""
        if not self.recording:
            return fn()
        tracer = self.tracer
        start = _now()
        result = tracer.call(metric, fn) if tracer.enabled else fn()
        raw = _now() - start
        if tracer.enabled:
            tracer.last_root["program"] = program  # whose op, for layers
        self._pending.append((metric, program, raw))
        return result

    def reference_ms(self, metric: str) -> Dict[str, List[float]]:
        """Program -> the metric's samples so far, in reference ms."""
        return {program: [ref for ref, _ in samples]
                for program, samples in self.samples.get(metric, {}).items()}

    def expect(self, kind: str, program: str, args, value,
               index: int = 0) -> None:
        problem = self.expected.mismatch(kind, program, args, value, index)
        if problem:
            raise OpFailed(problem)

    # -- the loop -----------------------------------------------------------

    def attempt(self, op: Op) -> bool:
        """Run one op between two calibrations; its samples count only
        if every check passed.  Consecutive ops share the calibration
        between them, so a run pays one (~1.5 ms) per op however many
        regions the op times."""
        self.attempted += 1
        self._pending = []
        tracer = self.tracer
        first_span = len(tracer.spans) if tracer.enabled else 0
        if tracer.enabled:
            tracer.op = self.attempted
        before = None
        if self.recording:
            before = self._speed or clock.speed()
        failure = None
        try:
            op(self)
        except Exception as exc:  # an op that raises is a failed op
            failure = (str(exc) if isinstance(exc, OpFailed) else
                       traceback.format_exc(limit=3).strip())
        finally:
            if tracer.enabled:
                tracer.op = None
        self._speed = clock.speed() if self.recording else None
        if failure is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(failure)
            return False
        if self._pending:
            scale = clock.REFERENCE_UNIT_S / ((before + self._speed) / 2.0)
            for metric, program, raw in self._pending:
                self.samples.setdefault(metric, {}).setdefault(
                    program, []).append((raw * scale * 1e3, raw * 1e3))
            if tracer.enabled:  # layer figures come in reference ms too
                for span in tracer.spans[first_span:]:
                    if span["parent"] is None:
                        span["scale"] = scale
        return True

    def warm(self, op: Op) -> None:
        """Run an op during set-up: checked, counted, not sampled."""
        recording, self.recording = self.recording, False
        try:
            self.attempt(op)
        finally:
            self.recording = recording

    def repeat(self, ops: Sequence[Op], seconds: float = 0.0,
               min_reps: int = 2, max_reps: int = 10 ** 9,
               side: Sequence[Op] = ()) -> int:
        """Whole repetitions of ``ops``, each in a freshly shuffled order,
        until the ops have run for ``seconds``; returns the repetition
        count.  ``side`` ops are run once each, spread evenly over that
        time, so they meet the same mix of machine speeds as ``ops``."""
        order = list(ops)
        spent = 0.0
        done = 0
        reps = 0
        while reps < max_reps and (reps < min_reps or spent < seconds):
            self.rng.shuffle(order)
            for op in order:
                start = time.perf_counter()
                self.attempt(op)
                spent += time.perf_counter() - start
                due = len(side) * min(spent / seconds, 1.0) if seconds else 0
                while done < int(due):
                    self.attempt(side[done])
                    done += 1
            reps += 1
        for op in side[done:]:
            self.attempt(op)
        return reps

    def trace(self) -> Tracer:
        self.tracer = Tracer()
        return self.tracer

    def untrace(self) -> None:
        self.tracer = NullTracer()


def settle() -> None:
    """After set-up: collect once, then move every survivor out of the
    collector's sight.  GC stays on during ops and is never forced per
    op (a forced collection cost 0.1-0.6 s against 17-30 ms ops)."""
    gc.collect()
    gc.freeze()
