"""``repro.store`` — the crash-safe persistent compiled-artifact store.

A versioned, content-addressed on-disk cache for
:class:`~repro.api.toolchain.CompiledProgram`, built so that compiled
and instrumented programs survive process restarts, concurrent writers
and dirty crashes without ever serving a corrupted artifact: entries
are self-verifying (:mod:`repro.store.format`), writes are atomic,
the ``objects/`` directory is the only record (an entry's size is its
file size, its recency its mtime), every detected corruption
quarantines + recompiles instead of crashing
(:mod:`repro.store.store`), and a cold key compiles once under a
flight lock (:mod:`repro.store.locks`).

Wired in via ``Session(store_dir=...)`` / the ``REPRO_STORE``
environment variable, and operated with ``python -m repro cache
stats|verify|gc``.  See ``docs/STORE.md``.
"""

from .format import (
    FORMAT_VERSION,
    MAGIC,
    StoreFormatError,
    cache_key_text,
    compute_key,
    decode_entry,
    encode_entry,
)
from .lru import LRUCache
from .locks import FileLock
from .store import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_ENTRIES,
    ArtifactStore,
    StoreStats,
    StoreWarning,
    VerifyReport,
)

__all__ = [
    "FORMAT_VERSION", "MAGIC", "StoreFormatError", "cache_key_text",
    "compute_key", "decode_entry", "encode_entry",
    "LRUCache", "FileLock",
    "DEFAULT_MAX_BYTES", "DEFAULT_MAX_ENTRIES", "ArtifactStore",
    "StoreStats", "StoreWarning", "VerifyReport",
]
