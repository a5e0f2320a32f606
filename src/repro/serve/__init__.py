"""repro.serve — persistent code cache and VM-as-a-service.

Two layers turn the engine from a per-process library into serving
infrastructure:

* :class:`DiskCodeCache` (``diskcache.py``) — a content-addressed
  on-disk store of :class:`~repro.vm.jit.CompiledCode` artifacts keyed
  by (function identity hash, code-version stamp, format version).  A
  cold process attached to a warm cache skips code generation entirely:
  the JIT's cache miss path deserializes the previous run's artifact and
  goes straight to instantiation.  Writes are atomic (write + rename);
  corrupt or version-skewed entries are rejected and fall back to
  recompilation.

* :class:`VMServer` (``server.py``) / :class:`VMClient` +
  :class:`SocketVMClient` (``client.py``) — a long-lived serving loop:
  N worker threads over one shared engine, compile queue and disk
  cache, pulling admission-batched request streams from an in-process
  queue or a unix-domain socket, with per-tenant profile isolation,
  graceful drain/shutdown, and per-request latency folded into the
  ``serve.latency`` percentile histogram.

See ``docs/serving.md`` for the disk format, invalidation rules, tenant
isolation and drain semantics.
"""

from .. import lazy_exports
from .diskcache import DEFAULT_CACHE_DIR, DiskCodeCache

# a process that only reads and writes the disk cache never loads the
# serving loop (nor ``socket``)
__getattr__ = lazy_exports(__name__, {
    "client": ("SocketVMClient", "VMClient"),
    "server": ("PendingRequest", "Request", "Response", "ServeError",
               "VMServer"),
})

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DiskCodeCache",
    "VMServer",
    "VMClient",
    "SocketVMClient",
    "Request",
    "Response",
    "PendingRequest",
    "ServeError",
]
