"""VM-as-a-service: a long-lived engine serving request streams.

:class:`VMServer` turns one :class:`~repro.vm.engine.ExecutionEngine`
into shared serving infrastructure: N worker threads pull requests from
an admission queue, execute them against the one engine (one JIT code
cache, one background compile queue, one persistent disk cache), and
resolve per-request futures.  The pieces:

* **admission batching** — a worker blocks for one request, then
  greedily drains up to ``batch_max - 1`` more before executing; under
  load the queue lock is paid once per batch, not once per request.
* **tenant isolation** — each request names a tenant; the worker wraps
  execution in :meth:`TierProfiler.tenant_scope`, so hotness counters,
  value feedback and promotion decisions are private per tenant while
  the compiled code they trigger is shared (code is tenant-independent,
  how hot it runs is not).
* **graceful drain/shutdown** — :meth:`drain` blocks until every
  admitted request has resolved; :meth:`shutdown` stops admission,
  optionally drains, then stops the workers.  Requests submitted after
  shutdown raise :class:`ServeError` instead of vanishing.
* **latency accounting** — every request's wall time folds into the
  ``serve.latency`` histogram timer (p50/p99 straight out of
  ``engine.stats_snapshot()``) and emits a ``serve.request`` instant.

Transports: in-process (``submit``/``call``, or :class:`VMClient`) and
a unix-domain socket speaking 4-byte-length-prefixed JSON frames
(:meth:`serve_unix`, paired with :class:`SocketVMClient`).

See ``docs/serving.md`` for the full semantics.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import struct
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from ..ir.function import Module
from ..obs import events as EV
from ..vm.engine import ExecutionEngine

#: per-worker stop sentinel; re-put if a batch drain swallows one meant
#: for another worker
_STOP = object()

_FRAME = struct.Struct("<I")
_MAX_FRAME = 1 << 24  # 16 MiB; a sanity bound, not a protocol limit


class ServeError(Exception):
    """A request could not be served (rejected, failed, or timed out)."""


class Request(NamedTuple):
    """One unit of admission: call ``function`` with ``args`` on behalf
    of ``tenant`` (None = the default profile scope)."""

    function: str
    args: Sequence[Any]
    tenant: Optional[str] = None


class Response(NamedTuple):
    """The wire-level outcome of one request."""

    ok: bool
    value: Any = None
    error: Optional[str] = None


class PendingRequest:
    """A future for one admitted request.

    Resolved exactly once by the worker that executes it;
    :meth:`result` blocks until then and re-raises the execution error
    (a :class:`~repro.vm.runtime.Trap`, a missing-function
    :class:`KeyError`, ...) in the caller's thread.
    """

    __slots__ = ("request", "_event", "_value", "_error")

    def __init__(self, request: Request):
        self.request = request
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._event.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        if not self._event.wait(timeout):
            raise ServeError(
                f"request @{self.request.function} timed out after "
                f"{timeout}s")
        if self._error is not None:
            raise self._error
        return self._value

    def __repr__(self) -> str:  # pragma: no cover
        state = ("pending" if not self._event.is_set()
                 else "failed" if self._error is not None else "done")
        return f"<PendingRequest @{self.request.function} {state}>"


class VMServer:
    """N worker threads serving request streams over one shared engine.

    Construct from a module (the server builds and owns the engine) or
    pass a prebuilt ``engine=`` to share one; ``disk_cache`` and
    ``compile_queue`` are forwarded so a server restart warm-starts
    from the previous process's compiles.
    """

    def __init__(self, module: Optional[Module] = None, *,
                 engine: Optional[ExecutionEngine] = None,
                 tier: str = "tiered", workers: int = 4,
                 batch_max: int = 8, disk_cache: Any = None,
                 compile_queue: Any = None, flight: bool = False,
                 call_threshold: Optional[int] = None,
                 backedge_threshold: Optional[int] = None):
        if (module is None) == (engine is None):
            raise ValueError("pass exactly one of module= or engine=")
        if workers < 1:
            raise ValueError("VMServer needs at least one worker")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if engine is None:
            kwargs: Dict[str, Any] = {}
            if call_threshold is not None:
                kwargs["call_threshold"] = call_threshold
            if backedge_threshold is not None:
                kwargs["backedge_threshold"] = backedge_threshold
            engine = ExecutionEngine(
                module, tier=tier, disk_cache=disk_cache,
                compile_queue=compile_queue, flight=flight, **kwargs)
        self.engine = engine
        self.workers = workers
        self.batch_max = batch_max
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._cond = threading.Condition()
        self._outstanding = 0
        self._shutdown = False
        self._stopped = False
        #: lifetime counters (guarded by ``_cond``'s lock)
        self.received = 0
        self.completed = 0
        self.errors = 0
        self.batches = 0
        self.max_batch = 0
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"serve-worker-{index}", daemon=True)
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()
        self._listener: Optional[socket.socket] = None
        self._socket_path: Optional[str] = None
        self._accept_thread: Optional[threading.Thread] = None

    # -- admission ----------------------------------------------------------------

    def submit(self, function: str, args: Sequence[Any] = (),
               tenant: Optional[str] = None) -> PendingRequest:
        """Admit one request; returns its future immediately."""
        pending = PendingRequest(Request(function, tuple(args), tenant))
        with self._cond:
            if self._shutdown:
                raise ServeError("server is shut down")
            self.received += 1
            self._outstanding += 1
        self._queue.put(pending)
        return pending

    def call(self, function: str, args: Sequence[Any] = (),
             tenant: Optional[str] = None,
             timeout: Optional[float] = None) -> Any:
        """Admit one request and block for its result."""
        return self.submit(function, args, tenant).result(timeout)

    # -- the workers --------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            # admission batching: drain greedily up to batch_max so a
            # loaded queue is paid for once per batch
            batch: List[PendingRequest] = [item]
            while len(batch) < self.batch_max:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    # that sentinel was meant for some worker — put it
                    # back and finish this batch first
                    self._queue.put(extra)
                    break
                batch.append(extra)
            with self._cond:
                self.batches += 1
                self.max_batch = max(self.max_batch, len(batch))
            for pending in batch:
                self._execute(pending)

    def _execute(self, pending: PendingRequest) -> None:
        request = pending.request
        engine = self.engine
        ok = True
        start = time.perf_counter()
        try:
            func = engine.module.get_function(request.function)
            with engine.profiler.tenant_scope(request.tenant):
                value = engine.call(func, list(request.args))
            pending._resolve(value)
        except BaseException as error:
            ok = False
            pending._reject(error)
        finally:
            engine.metrics.record_time(
                EV.SERVE_LATENCY, time.perf_counter() - start)
            engine.telemetry.event(
                EV.SERVE_REQUEST, function=request.function,
                tenant=request.tenant, ok=ok)
            with self._cond:
                self.completed += 1
                if not ok:
                    self.errors += 1
                self._outstanding -= 1
                self._cond.notify_all()

    # -- lifecycle ----------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted request has resolved.

        Returns True when the server went idle, False on timeout.  New
        requests may still be admitted while draining — callers wanting
        a terminal drain use :meth:`shutdown`.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._cond:
            while self._outstanding:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
            return True

    def shutdown(self, wait: bool = True,
                 timeout: Optional[float] = None) -> bool:
        """Stop admission, drain in-flight work, stop the workers.

        With ``wait=False`` the queue is abandoned: undrained requests
        are rejected with :class:`ServeError` so no caller blocks
        forever.  Idempotent.
        """
        with self._cond:
            if self._stopped:
                return True
            self._shutdown = True
        drained = True
        if wait:
            drained = self.drain(timeout)
        listener = self._listener
        if listener is not None:
            self._listener = None
            try:
                listener.close()
            except OSError:
                pass
        if self._socket_path is not None:
            try:
                os.unlink(self._socket_path)
            except OSError:
                pass
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=5.0)
        # reject anything still sitting in the queue (wait=False path)
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                continue
            item._reject(ServeError("server shut down before execution"))
            with self._cond:
                self._outstanding -= 1
                self._cond.notify_all()
        with self._cond:
            self._stopped = True
        return drained

    def __enter__(self) -> "VMServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- socket transport ---------------------------------------------------------

    def serve_unix(self, path: Any) -> str:
        """Listen for request streams on a unix-domain socket.

        Frames are ``<u32 little-endian length><JSON payload>``; each
        request object is ``{"function": str, "args": [...],
        "tenant": str|null}`` and each response ``{"ok": bool,
        "value": ..., "error": str|null}``.  One connection is one
        stream: frames are served in order, the connection closes on
        EOF.  Returns the bound path.
        """
        path = str(path)
        with self._cond:
            if self._shutdown:
                raise ServeError("server is shut down")
            if self._listener is not None:
                raise ServeError("server is already listening")
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen()
        self._listener = listener
        self._socket_path = path
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,),
            name="serve-accept", daemon=True)
        self._accept_thread.start()
        return path

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed by shutdown
            threading.Thread(target=self._serve_connection, args=(conn,),
                             name="serve-conn", daemon=True).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                frame = _read_frame(conn)
                if frame is None:
                    return
                response = self._handle_frame(frame)
                _write_frame(conn, response)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle_frame(self, frame: bytes) -> Response:
        try:
            message = json.loads(frame)
            function = message["function"]
            args = message.get("args", [])
            tenant = message.get("tenant")
            if not isinstance(function, str) or not isinstance(args, list):
                raise ValueError("malformed request object")
        except (ValueError, KeyError, TypeError) as error:
            return Response(ok=False, error=f"bad request: {error}")
        try:
            value = self.call(function, args, tenant=tenant)
        except BaseException as error:
            return Response(ok=False, error=str(error) or repr(error))
        return Response(ok=True, value=value)

    # -- statistics ---------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "workers": self.workers,
                "batch_max": self.batch_max,
                "received": self.received,
                "completed": self.completed,
                "errors": self.errors,
                "outstanding": self._outstanding,
                "batches": self.batches,
                "max_batch": self.max_batch,
            }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<VMServer workers={self.workers} "
                f"completed={self.completed} errors={self.errors}>")


# -- framing helpers (shared with SocketVMClient) ---------------------------------


def _read_frame(conn: socket.socket) -> Optional[bytes]:
    header = _recv_exact(conn, _FRAME.size)
    if header is None:
        return None
    (length,) = _FRAME.unpack(header)
    if length > _MAX_FRAME:
        raise OSError(f"frame too large: {length}")
    payload = _recv_exact(conn, length)
    if payload is None:
        raise OSError("connection closed mid-frame")
    return payload


def _write_frame(conn: socket.socket, response: Response) -> None:
    payload = json.dumps(
        {"ok": response.ok, "value": response.value,
         "error": response.error}).encode()
    conn.sendall(_FRAME.pack(len(payload)) + payload)


def _recv_exact(conn: socket.socket, count: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = conn.recv(remaining)
        if not chunk:
            if chunks:
                raise OSError("connection closed mid-frame")
            return None  # clean EOF on a frame boundary
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
