"""Persistent, content-addressed store of compiled-code artifacts.

:class:`DiskCodeCache` gives :class:`~repro.vm.jit.CompiledCode` the one
property it was still missing: surviving process death.  The in-memory
artifact cache (PR 1) already made compiled code engine-independent and
stamped by ``code_version``/``code_shape``; this layer marshals those
artifacts to disk so the *next* process warm-starts from a previous
run's compiles — the OCamlJIT 2.0 move of caching byte-code compilation
results across runs.

Keying
======

An entry's filename is the hex SHA-256 of::

    (key-schema tag, disk format version, interpreter bytecode magic,
     function name, printed IR body, code_version, code_shape)

The *printed IR body* is the deterministic textual form from
:func:`repro.ir.printer.print_function` — it is what makes the key a
*function identity hash* rather than a name: a fresh process that
parses the same source reproduces the same text (hit), while any body
rewrite (transform pass, OSR insertion) changes both the text and the
version stamp (miss, recompile, write-through).  Including the
interpreter's bytecode magic number means a Python upgrade simply
misses everything instead of loading foreign bytecode.

Invalidation is therefore purely key-based: stale entries are never
*deleted* on invalidation, they just stop being addressed; the embedded
stamps are still re-checked on load as a second line of defense (a key
collision or a hand-copied file cannot smuggle an old body in).

File format
===========

``b"RPRC" + format byte + 4-byte bytecode magic + 32-byte SHA-256 of
the payload + payload``, where the payload is
:func:`repro.vm.jit.serialize_artifact` bytes.  Writes go to a
temporary file in the same directory followed by :func:`os.replace`, so
readers only ever observe complete entries; any header/checksum/format
mismatch on read is counted, the entry is dropped best-effort, and the
caller recompiles.

Thread-safety: file operations are atomic at the OS level and the
counters are guarded by a lock, so one cache instance may be shared by
engines promoting on several caller threads.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from importlib.util import MAGIC_NUMBER
from pathlib import Path
from typing import Any, Dict, Optional

from ..ir.function import Function, Module
from ..ir.printer import print_function
from ..vm.jit import (
    DISK_FORMAT_VERSION,
    ArtifactFormatError,
    CompiledCode,
    JITError,
    UnserializableArtifact,
    deserialize_artifact,
    serialize_artifact,
)

#: the conventional cache location (gitignored); engines accept a plain
#: path and construct the cache themselves
DEFAULT_CACHE_DIR = ".repro-cache"

_HEADER_MAGIC = b"RPRC"
_MAGIC4 = MAGIC_NUMBER[:4].ljust(4, b"\0")
_HEADER = struct.Struct("<4sB4s32s")
_KEY_SCHEMA = b"repro.serve.diskcache/key/1"


class DiskCodeCache:
    """Content-addressed on-disk artifact store (see module docstring)."""

    def __init__(self, path: Any = DEFAULT_CACHE_DIR,
                 readonly: bool = False):
        self.path = Path(path)
        self.readonly = readonly
        if not readonly:
            self.path.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._tmp_counter = 0
        #: lifetime counters: loads served / key absent / entry present
        #: but rejected (corrupt, format skew, stamp mismatch) / entries
        #: written / artifacts refused by the serialization audit / OS
        #: errors swallowed
        self.hits = 0
        self.misses = 0
        self.rejected = 0
        self.writes = 0
        self.unserializable = 0
        self.errors = 0

    # -- keying -------------------------------------------------------------------

    @staticmethod
    def identity_hash(func: Function) -> str:
        """Process-independent identity of a function *body*: the hex
        SHA-256 of its deterministic printed IR."""
        return hashlib.sha256(print_function(func).encode()).hexdigest()

    def key_for(self, func: Function) -> str:
        """The entry key for ``func`` at its current version stamps."""
        shape = func.code_shape()
        hasher = hashlib.sha256()
        hasher.update(_KEY_SCHEMA)
        hasher.update(struct.pack("<B", DISK_FORMAT_VERSION))
        hasher.update(_MAGIC4)
        hasher.update(func.name.encode())
        hasher.update(b"\0")
        hasher.update(print_function(func).encode())
        hasher.update(struct.pack("<qqq", func.code_version,
                                  shape[0], shape[1]))
        return hasher.hexdigest()

    def entry_path(self, key: str) -> Path:
        # two-level fan-out keeps directories small under many entries
        return self.path / key[:2] / f"{key[2:]}.rpc"

    # -- loading ------------------------------------------------------------------

    def load(self, func: Function, module: Module) -> Optional[CompiledCode]:
        """The stored artifact for ``func``'s current stamps, or None.

        Every failure mode — absent entry, corrupt bytes, format or
        interpreter-version skew, stamp mismatch, dangling name
        references — returns None so the caller falls back to a normal
        compile; nothing stored on disk can ever raise into the JIT
        path.  Bad entries are unlinked best-effort.
        """
        entry = self.entry_path(self.key_for(func))
        try:
            blob = entry.read_bytes()
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except OSError:
            with self._lock:
                self.misses += 1
                self.errors += 1
            return None
        artifact = self._decode(blob, func, module)
        if artifact is None:
            with self._lock:
                self.rejected += 1
                self.misses += 1
            self._drop(entry)
            return None
        with self._lock:
            self.hits += 1
        return artifact

    def _decode(self, blob: bytes, func: Function,
                module: Module) -> Optional[CompiledCode]:
        if len(blob) < _HEADER.size:
            return None
        magic, fmt, pymagic, digest = _HEADER.unpack_from(blob)
        payload = blob[_HEADER.size:]
        if (magic != _HEADER_MAGIC or fmt != DISK_FORMAT_VERSION
                or pymagic != _MAGIC4):
            return None
        if hashlib.sha256(payload).digest() != digest:
            return None
        try:
            artifact = deserialize_artifact(payload, module)
        except (ArtifactFormatError, JITError, KeyError):
            return None
        # second line of defense: the embedded stamps must equal the
        # live function's — a stale or transplanted entry is rejected
        # here even if it somehow landed under the right key
        if not artifact.matches(func):
            return None
        return artifact

    def _drop(self, entry: Path) -> None:
        if self.readonly:
            return
        try:
            entry.unlink()
        except OSError:
            with self._lock:
                self.errors += 1

    # -- storing ------------------------------------------------------------------

    def store(self, func: Function, artifact: CompiledCode) -> bool:
        """Write ``artifact`` through to disk; returns True on success.

        Unserializable artifacts (engine-session handles baked in) and
        readonly caches return False without raising; the artifact must
        match the function's current stamps (an in-flight invalidate
        makes the write moot, not wrong — the entry would simply never
        be addressed — but skipping it keeps the store tidy).
        """
        if self.readonly or not artifact.matches(func):
            return False
        try:
            payload = serialize_artifact(func, artifact)
        except UnserializableArtifact:
            with self._lock:
                self.unserializable += 1
            return False
        header = _HEADER.pack(_HEADER_MAGIC, DISK_FORMAT_VERSION, _MAGIC4,
                              hashlib.sha256(payload).digest())
        entry = self.entry_path(self.key_for(func))
        with self._lock:
            self._tmp_counter += 1
            tmp = entry.parent / f".tmp-{os.getpid()}-{self._tmp_counter}"
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(header + payload)
            os.replace(tmp, entry)
        except OSError:
            with self._lock:
                self.errors += 1
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        with self._lock:
            self.writes += 1
        return True

    # -- maintenance --------------------------------------------------------------

    def entry_count(self) -> int:
        """Number of entries currently on disk (walks the store)."""
        if not self.path.exists():
            return 0
        return sum(1 for _ in self.path.glob("*/*.rpc"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in list(self.path.glob("*/*.rpc")):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                with self._lock:
                    self.errors += 1
        return removed

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "rejected": self.rejected,
                "writes": self.writes,
                "unserializable": self.unserializable,
                "errors": self.errors,
            }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<DiskCodeCache {str(self.path)!r} hits={self.hits} "
                f"misses={self.misses} writes={self.writes}>")
