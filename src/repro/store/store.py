"""The crash-safe persistent artifact store.

Layout of a store directory::

    objects/<key>.rpa        one self-verifying entry per cache key
    corrupt/<name>           quarantined entries awaiting autopsy
    locks/flight.<...>.lock  single-flight compile locks (see
                             :mod:`repro.store.locks`)

``objects/`` is the store's only record: an entry's size is its file
size and its recency its mtime, which every landed put and every hit
stamp.  A leftover ``index.json`` from an older layout is ignored.

Robustness contract, in order of importance:

1. **Never serve a corrupted artifact.**  Reads re-validate everything
   (:mod:`repro.store.format`); any mismatch quarantines the entry into
   ``corrupt/`` and reports a miss, so the caller recompiles.
2. **Never tear an entry.**  Writes go tmp file → ``fsync`` → atomic
   ``os.replace``; a crash at any instant leaves either the old state
   or the new state, plus at most one orphan tmp file ``gc`` sweeps.
3. **Never hang, never raise.**  The store takes no locks.  A write
   that fails degrades — skip the disk write, keep the in-process
   result, count it — and a failed mtime stamp (a read-only store)
   costs only recency.
4. **Bounds are enforced from one directory scan.**  A landed put and
   ``gc`` remove the oldest entries past the bounds; two processes
   evicting at once may briefly take the store below its bound.

Fault points for the chaos drills (:mod:`repro.harness.faults`) are
compiled in: payload mangling (torn write / bit flip), injected
EPERM/ENOSPC on open, and SIGKILL between tmp write and replace (the
other SIGKILL point, holding the flight lock, is in
``Session._compile_cold``).
"""

import os
import threading
import time
import warnings
from dataclasses import asdict, dataclass, field

from ..harness import faults
from ..obs.metrics import default_registry
from ..obs.trace import tracer
from .format import (
    StoreFormatError,
    cache_key_text,
    compute_key,
    decode_entry,
    dumps_program,
    encode_entry,
    loads_program,
)

ENTRY_SUFFIX = ".rpa"

DEFAULT_MAX_BYTES = 256 * 1024 * 1024
DEFAULT_MAX_ENTRIES = 4096

#: Orphan tmp and lock files older than this are swept by ``gc`` (a
#: younger one may belong to an in-flight writer or compile).
TMP_SWEEP_AGE_SECONDS = 300.0


class StoreWarning(RuntimeWarning):
    """A store degradation the run survived (write failure, unreadable
    entry) — surfaced, never fatal."""


@dataclass
class StoreStats:
    """Per-process counters for one :class:`ArtifactStore` instance."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    puts: int = 0
    evictions: int = 0
    #: Writes skipped (the entry kept working from the in-process
    #: cache but the disk was not written).
    write_errors: int = 0

    def as_dict(self):
        return asdict(self)


@dataclass
class VerifyReport:
    """Result of a full-store integrity pass."""

    checked: int = 0
    ok: int = 0
    #: ``(key, reason, detail)`` per quarantined entry.
    corrupt: list = field(default_factory=list)

    def as_dict(self):
        return {"checked": self.checked, "ok": self.ok,
                "corrupt": [list(item) for item in self.corrupt]}


def _stamp(path):
    """Stamp ``path``'s mtime as its recency; a failed stamp (a
    read-only store) loses only recency."""
    now = time.time_ns()
    try:
        os.utime(path, ns=(now, now))
    except OSError:
        pass


def _sweep_aged(directory, marker):
    """Remove the files of ``directory`` whose names contain ``marker``
    and that are older than :data:`TMP_SWEEP_AGE_SECONDS`; returns how
    many went."""
    cutoff = time.time() - TMP_SWEEP_AGE_SECONDS
    swept = 0
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    for name in names:
        if marker not in name:
            continue
        path = os.path.join(directory, name)
        try:
            if os.path.getmtime(path) < cutoff:
                os.remove(path)
                swept += 1
        except OSError:
            pass
    return swept


class ArtifactStore:
    """A content-addressed, size-bounded compiled-program store.

    ``max_bytes``/``max_entries`` bound the store; a landed ``put``
    evicts the least recently used entries past them.
    """

    def __init__(self, root, max_bytes=DEFAULT_MAX_BYTES,
                 max_entries=DEFAULT_MAX_ENTRIES):
        self.root = os.path.abspath(root)
        self.objects_dir = os.path.join(self.root, "objects")
        self.corrupt_dir = os.path.join(self.root, "corrupt")
        self.locks_dir = os.path.join(self.root, "locks")
        for path in (self.objects_dir, self.corrupt_dir, self.locks_dir):
            os.makedirs(path, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.stats = StoreStats()
        # Publish the counters as repro_store_* series for as long as
        # this store is alive; the obs registry holds only a weakref.
        default_registry().register_source("repro_store_", self.stats,
                                           StoreStats.as_dict)

    def _warn(self, message):
        warnings.warn(message, StoreWarning, stacklevel=3)

    def entry_path(self, key):
        return os.path.join(self.objects_dir, key + ENTRY_SUFFIX)

    # -- the directory is the record -----------------------------------

    def _entries(self):
        """``(mtime_ns, name, size)`` of every regular entry file,
        oldest first, from one scan of ``objects/``."""
        entries = []
        try:
            with os.scandir(self.objects_dir) as scan:
                for entry in scan:
                    if not entry.name.endswith(ENTRY_SUFFIX):
                        continue
                    try:
                        if not entry.is_file():
                            continue
                        stat = entry.stat()
                    except OSError:
                        continue  # evicted or quarantined meanwhile
                    entries.append((stat.st_mtime_ns, entry.name,
                                    stat.st_size))
        except OSError:
            return []
        entries.sort()
        return entries

    def _evict_to_bounds(self, max_bytes=None, max_entries=None):
        """Remove the oldest entries until the store is within bounds;
        returns how many were removed.  A remove that fails is skipped
        and not counted."""
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        max_entries = self.max_entries if max_entries is None else max_entries
        entries = self._entries()
        count = len(entries)
        total = sum(size for _, _, size in entries)
        evicted = 0
        for _, name, size in entries:
            if (max_entries is None or count <= max_entries) \
                    and (max_bytes is None or total <= max_bytes):
                break
            try:
                os.remove(os.path.join(self.objects_dir, name))
            except OSError:
                continue
            count -= 1
            total -= size
            evicted += 1
        self.stats.evictions += evicted
        return evicted

    # -- quarantine ----------------------------------------------------

    def _quarantine(self, key, reason):
        """Move a bad entry into ``corrupt/`` (atomic rename; never
        raises — a quarantine failure still ends in a miss)."""
        with tracer().span("store.quarantine", key=key[:12], reason=reason):
            return self._quarantine_entry(key, reason)

    def _quarantine_entry(self, key, reason):
        source = self.entry_path(key)
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        counter = 0
        while True:
            suffix = f".{counter}" if counter else ""
            target = os.path.join(
                self.corrupt_dir, f"{key}.{reason}.{stamp}{suffix}{ENTRY_SUFFIX}")
            if not os.path.exists(target):
                break
            counter += 1
        try:
            os.replace(source, target)
        except OSError:
            try:
                os.remove(source)
            except OSError:
                pass
        self.stats.corrupt += 1
        return target

    def quarantined(self):
        """Names of quarantined entries (autopsy queue)."""
        try:
            return sorted(name for name in os.listdir(self.corrupt_dir)
                          if name.endswith(ENTRY_SUFFIX))
        except OSError:
            return []

    # -- the core API --------------------------------------------------

    def get(self, key, key_text=None):
        """The stored :class:`CompiledProgram` for ``key``, or ``None``.

        Lock-free: the entry file is atomic-replaced and self-verifying.
        Every failure mode — missing, truncated, flipped, foreign,
        version-skewed, unpicklable — is a miss; validation failures
        additionally quarantine the file.
        """
        with tracer().span("store.get", key=key[:12]) as span:
            program = self._get(key, key_text)
            span.set(hit=program is not None)
            return program

    def _get(self, key, key_text):
        path = self.entry_path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError as error:
            self.stats.misses += 1
            self._warn(f"store entry {key[:12]} unreadable ({error}); "
                       f"treating as a miss")
            return None
        try:
            _, payload = decode_entry(blob, expected_key=key,
                                      expected_key_text=key_text)
            program = loads_program(payload)
        except StoreFormatError as error:
            target = self._quarantine(key, error.reason)
            self._warn(f"store entry {key[:12]} failed verification "
                       f"({error}); quarantined to {target} and "
                       f"recompiling")
            return None
        self.stats.hits += 1
        _stamp(path)
        return program

    def put(self, key, compiled, key_text="", label=""):
        """Persist ``compiled`` under ``key``; returns True when the
        entry landed on disk.  Any failure — unpicklable payload,
        filesystem error — degrades (warn + False), never raises."""
        with tracer().span("store.put", key=key[:12], label=label) as span:
            landed = self._put(key, compiled, key_text, label)
            span.set(landed=landed)
            return landed

    def _put(self, key, compiled, key_text, label):
        try:
            payload = dumps_program(compiled)
        except Exception as error:
            self.stats.write_errors += 1
            self._warn(f"store entry {key[:12]} not persisted: payload "
                       f"does not pickle ({type(error).__name__}: {error})")
            return False
        blob = encode_entry(key, key_text, label, payload)
        path = self.entry_path(key)
        # One tmp file per writer: two threads of a process may put
        # the same key at once.
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            faults.check_write_open()
            with open(tmp, "wb") as handle:
                handle.write(faults.mangle_payload(blob))
                handle.flush()
                os.fsync(handle.fileno())
            faults.maybe_die("replace")
            os.replace(tmp, path)
        except OSError as error:
            self.stats.write_errors += 1
            self._warn(f"store entry {key[:12]} not persisted "
                       f"({type(error).__name__}: {error}); keeping "
                       f"the in-process copy only")
            try:
                os.remove(tmp)
            except OSError:
                pass
            return False
        self.stats.puts += 1
        _stamp(path)
        self._evict_to_bounds()
        return True

    # -- the compile-cache convenience layer ---------------------------

    def load(self, source, profile, optimize=True):
        """Look up the artifact for one (source, profile, optimize)
        compile, verifying the key derivation matches this build."""
        key_text = cache_key_text(profile, optimize)
        return self.get(compute_key(source, profile, optimize),
                        key_text=key_text)

    def save(self, source, profile, optimize, compiled):
        """Persist one compile under its content address."""
        key_text = cache_key_text(profile, optimize)
        return self.put(compute_key(source, profile, optimize), compiled,
                        key_text=key_text, label=profile.label)

    def payload_sha256(self, key):
        """The stored payload digest from the entry header, or ``None``.

        This is the digest of the exact bytes ``get`` unpickles, so two
        processes that loaded the same entry — or the process that wrote
        it — can prove they hold bit-identical artifacts without
        re-pickling (re-pickling a program that has since been
        instantiated is neither possible nor canonical)."""
        try:
            with open(self.entry_path(key), "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            header, _ = decode_entry(blob, expected_key=key)
        except StoreFormatError:
            return None
        return header.get("payload_sha256")

    # -- maintenance ops ----------------------------------------------

    def verify(self, deep=True):
        """Validate every entry; quarantine the bad ones.  ``deep``
        additionally unpickles each payload (catching entries whose
        digest is fine but whose classes moved)."""
        report = VerifyReport()
        for name in sorted(os.listdir(self.objects_dir)):
            if not name.endswith(ENTRY_SUFFIX):
                continue
            key = name[:-len(ENTRY_SUFFIX)]
            report.checked += 1
            try:
                with open(os.path.join(self.objects_dir, name), "rb") as handle:
                    blob = handle.read()
                _, payload = decode_entry(blob, expected_key=key)
                if deep:
                    loads_program(payload)
            except StoreFormatError as error:
                self._quarantine(key, error.reason)
                report.corrupt.append((key, error.reason, error.detail))
                continue
            except OSError as error:
                report.corrupt.append((key, "io", str(error)))
                continue
            report.ok += 1
        return report

    def gc(self, max_bytes=None, max_entries=None, sweep_corrupt=False):
        """Sweep the tmp and lock files that writers and compiles
        killed mid-flight left behind, optionally empty the quarantine,
        and evict the oldest entries past the (optionally overridden)
        bounds."""
        report = {"tmp_swept": _sweep_aged(self.objects_dir, ".tmp."),
                  "locks_swept": _sweep_aged(self.locks_dir, ".lock"),
                  "evicted": 0, "corrupt_swept": 0}
        if sweep_corrupt:
            for name in self.quarantined():
                try:
                    os.remove(os.path.join(self.corrupt_dir, name))
                    report["corrupt_swept"] += 1
                except OSError:
                    pass
        report["evicted"] = self._evict_to_bounds(
            max_bytes=max_bytes, max_entries=max_entries)
        return report

    def stats_report(self):
        """One JSON-able snapshot: contents, bounds, counters.

        The counters are this instance's live :class:`StoreStats` (the
        ``repro_store_*`` registry source) plus the ``repro_store_*``
        deltas merged into the shared obs registry from worker
        processes — the registry's merged side table only, so other
        store instances alive in the process never leak in.
        """
        entries = self._entries()
        counters = self.stats.as_dict()
        prefix = "repro_store_"
        for name, value in default_registry().merged(prefix).items():
            key = name[len(prefix):]
            counters[key] = counters.get(key, 0) + value
        return {
            "root": self.root,
            "entries": len(entries),
            "total_bytes": sum(size for _, _, size in entries),
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
            "quarantined": len(self.quarantined()),
            "counters": counters,
        }
