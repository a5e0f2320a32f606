"""repro.serve — the persistent code cache.

:class:`DiskCodeCache` (``diskcache.py``) is a content-addressed
on-disk store of :class:`~repro.vm.jit.CompiledCode` artifacts keyed by
(function identity hash, code-version stamp, format version).  A cold
process attached to a warm cache skips code generation entirely: the
JIT's cache miss path deserializes the previous run's artifact and goes
straight to instantiation.  Writes are atomic (write + rename); corrupt
or version-skewed entries are rejected and fall back to recompilation.
``python -m repro.serve smoke`` runs the warm-start round trip.

See ``docs/serving.md`` for the disk format and invalidation rules.
"""

from .diskcache import DEFAULT_CACHE_DIR, DiskCodeCache

__all__ = ["DEFAULT_CACHE_DIR", "DiskCodeCache"]
