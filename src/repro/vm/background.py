"""Background compilation: non-blocking tier-up off the hot path.

The paper's OSR machinery (and the Deoptless/à-la-Carte framing in
PAPERS.md) assumes a new code version can be *produced* off the hot
path and *installed* atomically while the function keeps running in its
current tier.

Producing and installing is one routine, :func:`run_job`: obtain the
artifact (:func:`~repro.vm.jit.acquire_artifact` — memory cache, disk
cache, code generation, all engine-read-only) and ask the owning engine
to publish it.  It runs on whichever thread promotes: the dispatcher's
own for an inline policy, or a :class:`CompileQueue` worker's for a
background one, while the dispatcher keeps executing the decoded tier.
The queue adds only scheduling:

* **deduplicated pending set** — one in-flight job per
  ``(engine, function)``; re-tripping the threshold while a compile is
  queued or running is a no-op;
* **priority by hotness** — jobs pop hottest-first
  (:meth:`FunctionProfile.hotness`), so under a backlog the functions
  burning the most interpreter time tier up first.

Correctness rests on the **atomic publish with a generation stamp** —
the dispatcher reads a :class:`PublishBox` created with the function's
*compile generation*.  ``engine.invalidate()`` bumps the generation
under the engine lock; the publish re-checks it (and the body-level
artifact stamp, and that the box is still empty) inside the same lock
before assigning the box, so a racing invalidation makes the job
*discard* its result instead of installing stale code.

Telemetry: ``compile.queue`` (background only) / ``compile.start`` /
``compile.install`` / ``compile.discard`` instants, the ``jit.compile``
and ``codegen.build`` spans (under the compiling thread's own ``tid``),
a ``compile.queue_depth`` gauge, and two histogram-backed timers:
``compile.wait`` (enqueue to pickup; ~0 for an inline promotion) and
``compile.latency`` (enqueue to install).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..obs import events as EV
from .jit import JITError, acquire_artifact


class PublishBox:
    """What calls of one function reach now: the publication cell its
    dispatcher reads until something is published (the publication
    then also re-points the callers themselves, ``engine._route``).

    ``value`` starts ``None`` (keep running the baseline tier).  A
    compile job publishes only into an empty box of its own generation
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


class CompileJob:
    """One queued tier-up compile: a function, its engine, the box the
    result publishes into, and the profile whose counters tripped.

    The profile rides along so the publish, on whichever thread it
    runs, stamps and reports *this* profile as promoted.  Its hotness at
    submit time is the job's priority.
    """

    __slots__ = ("engine", "func", "box", "profile", "priority",
                 "enqueued_at", "cancelled")

    def __init__(self, engine, func, box: PublishBox, profile):
        self.engine = engine
        self.func = func
        self.box = box
        self.profile = profile
        self.priority = profile.hotness()
        self.enqueued_at = time.perf_counter()
        #: set by :meth:`CompileQueue.discard` (invalidation raced the
        #: queue); the worker drops the job without compiling
        self.cancelled = False

    @property
    def key(self) -> Tuple[int, str]:
        return (id(self.engine), self.func.name)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CompileJob @{self.func.name} prio={self.priority}>"


def run_job(job: CompileJob) -> str:
    """Compile ``job.func`` and publish it into ``job.box``, on the
    calling thread: a queue worker's, or the dispatcher's own for an
    inline promotion.

    Returns ``"installed"``, or why nothing was: ``"discarded"`` (the
    job was cancelled or an ``invalidate()`` outran it) or ``"failed"``
    (code generation raised :class:`JITError`).  Either way a
    ``compile.discard`` event carries the reason and the function stays
    on its baseline tier: the box latched the request, so nothing
    retries and nothing reaches the caller.
    """
    engine, func = job.engine, job.func
    tel = engine.telemetry
    outcome, reason = "discarded", "stale-generation"
    if not (job.cancelled
            or engine.compile_generation(func.name) != job.box.generation):
        # queue wait: enqueue -> a thread picking the job up; histogram-
        # backed, so a backlog shows up as a fat p99 here before it
        # shows up anywhere else
        engine.metrics.record_time(
            EV.COMPILE_WAIT, time.perf_counter() - job.enqueued_at)
        tel.event(EV.COMPILE_START, function=func.name,
                  priority=job.priority)
        try:
            artifact = acquire_artifact(func, engine)
        except JITError as error:
            outcome, reason = "failed", f"jit-error: {error}"
        else:
            if engine._publish(job, artifact):
                engine.metrics.record_time(
                    EV.COMPILE_LATENCY,
                    time.perf_counter() - job.enqueued_at)
                tel.event(EV.COMPILE_INSTALL, function=func.name,
                          code_version=func.code_version,
                          generation=job.box.generation)
                return "installed"
    tel.event(EV.COMPILE_DISCARD, function=func.name, reason=reason)
    return outcome


class CompileQueue:
    """Worker-thread pool compiling tier-up jobs hottest-first.

    One queue may serve many engines (jobs carry their engine); an
    engine with a background-promoting policy creates a private
    single-worker queue lazily.  Each worker runs :func:`run_job`; the
    queue itself only schedules, deduplicates and counts outcomes.
    Workers are daemon threads started on first submit, so a queue that
    is never used costs nothing and never blocks interpreter shutdown.
    """

    def __init__(self, workers: int = 1, name: str = "compile"):
        if workers < 1:
            raise ValueError("CompileQueue needs at least one worker")
        self.workers = workers
        self.name = name
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: (-priority, seq, job) min-heap — pops the hottest job first
        self._heap: List[Tuple[int, int, CompileJob]] = []
        #: dedup: job key -> job, for every job queued or in flight
        self._pending: Dict[Tuple[int, str], CompileJob] = {}
        self._seq = itertools.count()
        self._threads: List[threading.Thread] = []
        self._inflight = 0
        self._shutdown = False
        #: lifetime counters, mirrored into each job's engine metrics
        self.submitted = 0
        self.installed = 0
        self.discarded = 0
        self.failed = 0

    # -- submission ---------------------------------------------------------------

    def submit(self, engine, func, box: PublishBox, profile) -> bool:
        """Enqueue a tier-up compile; returns False when deduplicated.

        The caller (the dispatcher, on its own hot path) pays one lock
        acquisition and a heap push — never any compilation cost.
        """
        job = CompileJob(engine, func, box, profile)
        with self._cond:
            if self._shutdown:
                raise RuntimeError("CompileQueue is shut down")
            if job.key in self._pending:
                return False
            self._pending[job.key] = job
            heapq.heappush(self._heap, (-job.priority, next(self._seq), job))
            depth = len(self._heap)
            self._ensure_workers()
            self._cond.notify()
        engine.metrics.gauge(EV.COMPILE_QUEUE_DEPTH, depth)
        engine.telemetry.event(EV.COMPILE_QUEUE, function=func.name,
                               priority=job.priority, depth=depth)
        self.submitted += 1
        return True

    def discard(self, engine, name: str) -> bool:
        """Cancel a pending/in-flight job for ``(engine, name)``.

        Called by ``engine.invalidate()`` under the engine lock; the
        generation stamp already protects the install, this additionally
        frees the dedup slot so the rewritten body can be resubmitted
        immediately.
        """
        key = (id(engine), name)
        with self._cond:
            job = self._pending.pop(key, None)
            if job is None:
                return False
            job.cancelled = True
        return True

    def _ensure_workers(self) -> None:
        # called under the lock; replenish dead/unstarted workers
        alive = [t for t in self._threads if t.is_alive()]
        while len(alive) < self.workers:
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"{self.name}-worker-{len(alive)}",
                daemon=True,
            )
            alive.append(thread)
            thread.start()
        self._threads = alive

    # -- the worker ---------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._heap and not self._shutdown:
                    self._cond.wait()
                if self._shutdown and not self._heap:
                    return
                _, _, job = heapq.heappop(self._heap)
                self._inflight += 1
                depth = len(self._heap)
            try:
                job.engine.metrics.gauge(EV.COMPILE_QUEUE_DEPTH, depth)
                outcome = run_job(job)
                if outcome == "installed":
                    self.installed += 1
                else:
                    self.discarded += 1
                    if outcome == "failed":
                        self.failed += 1
            finally:
                with self._cond:
                    self._inflight -= 1
                    # the job may already be gone (discard/cancel)
                    if self._pending.get(job.key) is job:
                        del self._pending[job.key]
                    self._cond.notify_all()

    # -- lifecycle ----------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued/in-flight job finished (or timeout).

        Returns True when the queue is idle — the benchmark and test
        idiom for "the promotion has landed (or been discarded)".
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._cond:
            while self._heap or self._inflight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
            return True

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; queued-but-unstarted jobs are abandoned."""
        with self._cond:
            self._shutdown = True
            self._heap.clear()
            self._pending.clear()
            self._cond.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=5.0)

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def idle(self) -> bool:
        with self._lock:
            return not self._heap and not self._inflight

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "workers": self.workers,
                "depth": len(self._heap),
                "inflight": self._inflight,
                "submitted": self.submitted,
                "installed": self.installed,
                "discarded": self.discarded,
                "failed": self.failed,
            }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<CompileQueue {self.name} depth={len(self._heap)} "
                f"installed={self.installed} discarded={self.discarded}>")
