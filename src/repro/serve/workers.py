"""Warm worker pool + the worker-side request executor.

The daemon never compiles or runs untrusted C in its own process: every
request is shipped to one of a fixed set of persistent worker
subprocesses (``python -m repro.serve.worker``) speaking the
:mod:`repro.fuzz.pool` length-prefixed pickle frame protocol.  The pool
grows that module's batch-oriented kill discipline into a long-lived
submit/await shape:

* **Warm.**  Workers are spawned eagerly at daemon boot and pre-import
  the whole toolchain (:mod:`repro.serve.worker`), so the first request
  pays no import cost; a respawned worker re-warms the same way.
* **Isolated.**  A worker past its wallclock deadline is SIGKILLed and
  the request resolves ``timeout``; a worker that dies mid-request
  (segfault, OOM kill, chaos drill) is detected by pipe EOF, respawned,
  and the request — pure compile+run, so idempotent — is retried once
  on another attempt before resolving ``crash``.  Other in-flight
  requests never notice: each worker slot owns a private pipe pair.
* **Shared artifacts, three cache levels.**  Inside each worker one
  size-bounded LRU (:class:`repro.store.LRUCache`, the same 256-entry
  bound :class:`repro.api.Session` uses) fronts the persistent artifact
  store (``REPRO_STORE``), which all workers share; a cold key is
  compiled **once** per store thanks to single-flight coalescing
  (:func:`compile_coalesced`): the first worker takes an advisory
  flight lock and compiles while the herd blocks on the lock,
  re-checks the store, and loads the bytes the winner wrote.

Metrics: ``repro_serve_queue_depth`` / ``repro_serve_inflight`` gauges
and ``repro_serve_worker_{spawns,kills,respawns}_total`` counters.
"""

import concurrent.futures
import os
import queue
import sys
import threading
import time

from ..fuzz.pool import _Deadline, _Worker, _WorkerDied
from ..obs.metrics import default_registry

#: Statuses a pool outcome can carry (the serve degradation taxonomy).
OK = "ok"
TIMEOUT = "timeout"
CRASH = "crash"
ERROR = "error"

#: How long a cold-key loser waits on the winner's flight lock before
#: degrading to its own compile (liveness beats dedup).
COALESCE_WAIT_SECONDS = 120.0

_task_call = "repro.serve.workers:execute_serve_request"


class PoolClosed(Exception):
    """Submit after close (daemon shutting down)."""


class Outcome:
    """What happened to one submitted request."""

    __slots__ = ("status", "value", "error", "attempts", "elapsed")

    def __init__(self, status, value=None, error=None, attempts=1,
                 elapsed=0.0):
        self.status = status
        self.value = value
        self.error = error
        self.attempts = attempts
        self.elapsed = elapsed

    @property
    def ok(self):
        return self.status == OK


def default_worker_command():
    return [sys.executable, "-m", "repro.serve.worker"]


def _worker_env():
    """Environment for worker subprocesses: the repo importable, and
    everything else (REPRO_STORE, REPRO_TRACE, REPRO_PLUGINS) inherited
    so workers share the parent's store, trace sink and plugins."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    existing = env.get("PYTHONPATH")
    if not existing:
        env["PYTHONPATH"] = src_root
    elif src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_root + os.pathsep + existing
    return env


class WarmPool:
    """A fixed-width pool of warm, crash-isolated serve workers.

    :meth:`submit` enqueues one request payload and returns a
    ``concurrent.futures.Future`` resolving to an :class:`Outcome`; the
    asyncio front-end awaits it via ``asyncio.wrap_future``.  The pool
    never raises for request-level failures — those are outcome
    statuses the server maps to HTTP responses.
    """

    def __init__(self, workers=2, deadline=30.0, env=None, worker_cmd=None,
                 retries=1):
        self.workers = max(int(workers), 1)
        self.deadline = deadline
        self.retries = max(int(retries), 0)
        self._cmd = list(worker_cmd) if worker_cmd \
            else default_worker_command()
        self._env = dict(env) if env is not None else _worker_env()
        self._queue = queue.Queue()
        self._slots = [None] * self.workers
        self._threads = []
        self._closed = False
        self._lock = threading.Lock()
        registry = default_registry()
        self._depth_gauge = registry.gauge("repro_serve_queue_depth")
        self._inflight_gauge = registry.gauge("repro_serve_inflight")
        self._pool_gauge = registry.gauge("repro_serve_workers")
        self._spawns = registry.counter("repro_serve_worker_spawns_total")
        self._kills = registry.counter("repro_serve_worker_kills_total")
        self._respawns = registry.counter("repro_serve_worker_respawns_total")

    # -- lifecycle -----------------------------------------------------

    def start(self):
        """Spawn every worker eagerly (they pre-import the toolchain on
        boot — that is the warmth) and start the drain threads."""
        self._pool_gauge.set(self.workers)
        for slot in range(self.workers):
            self._ensure_worker(slot)
            thread = threading.Thread(
                target=self._drain, args=(slot,),
                name=f"serve-pool-{slot}", daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def close(self):
        self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5)
        with self._lock:
            for slot, worker in enumerate(self._slots):
                if worker is not None:
                    worker.kill()
                    self._slots[slot] = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- introspection -------------------------------------------------

    @property
    def queue_depth(self):
        """Requests accepted but not yet being drained."""
        return self._queue.qsize()

    def worker_pids(self):
        """Live worker PIDs (the smoke drills kill one of these)."""
        with self._lock:
            return [worker.proc.pid for worker in self._slots
                    if worker is not None and worker.alive]

    # -- submission ----------------------------------------------------

    def submit(self, payload, deadline=None):
        """Enqueue one request; returns a Future[:class:`Outcome`]."""
        if self._closed:
            raise PoolClosed("worker pool is closed")
        future = concurrent.futures.Future()
        self._queue.put((future, payload,
                         self.deadline if deadline is None else deadline, 0))
        self._depth_gauge.set(self._queue.qsize())
        return future

    # -- drain loop ----------------------------------------------------

    def _ensure_worker(self, slot, respawn=False):
        with self._lock:
            worker = self._slots[slot]
            if worker is None or not worker.alive:
                worker = _Worker(self._cmd, self._env)
                self._slots[slot] = worker
                self._spawns.inc()
                if respawn:
                    self._respawns.inc()
            return worker

    def _retire_worker(self, slot):
        with self._lock:
            worker = self._slots[slot]
            self._slots[slot] = None
        if worker is not None:
            worker.kill()
            self._kills.inc()

    def _drain(self, slot):
        while True:
            try:
                item = self._queue.get(timeout=1.0)
            except queue.Empty:
                if self._closed:
                    return
                continue
            if item is None:
                return
            future, payload, deadline_s, attempt = item
            self._depth_gauge.set(self._queue.qsize())
            if attempt == 0 and not future.set_running_or_notify_cancel():
                continue  # cancelled while queued
            self._inflight_gauge.inc()
            try:
                self._run_one(slot, future, payload, deadline_s, attempt)
            finally:
                self._inflight_gauge.dec()

    def _run_one(self, slot, future, payload, deadline_s, attempt):
        started = time.monotonic()
        try:
            worker = self._ensure_worker(slot, respawn=attempt > 0)
            worker.send((id(future), _task_call, (payload,), {}))
            reply_id, status, value = worker.receive(started + deadline_s)
            while reply_id != id(future):  # stale reply from a past task
                reply_id, status, value = worker.receive(started + deadline_s)
        except _Deadline:
            self._retire_worker(slot)
            self._ensure_worker(slot, respawn=True)
            future.set_result(Outcome(
                TIMEOUT, error=f"no result within {deadline_s:.1f}s "
                               f"(worker killed and respawned)",
                attempts=attempt + 1,
                elapsed=time.monotonic() - started))
            return
        except _WorkerDied:
            self._retire_worker(slot)
            self._ensure_worker(slot, respawn=True)
            if attempt < self.retries:
                # Requests are pure compile+run — idempotent — so one
                # infra retry is safe; the retried request keeps its
                # original wallclock deadline budget from zero.
                self._queue.put((future, payload, deadline_s, attempt + 1))
                self._depth_gauge.set(self._queue.qsize())
                return
            future.set_result(Outcome(
                CRASH, error="worker process died (retry exhausted)",
                attempts=attempt + 1,
                elapsed=time.monotonic() - started))
            return
        elapsed = time.monotonic() - started
        if status == "ok":
            future.set_result(Outcome(OK, value=value,
                                      attempts=attempt + 1, elapsed=elapsed))
        else:
            # In-band exceptions are deterministic request failures
            # (bad program state the validators missed, a worker-side
            # bug): retrying cannot help, so resolve immediately.
            future.set_result(Outcome(ERROR, error=value,
                                      attempts=attempt + 1, elapsed=elapsed))


# ----------------------------------------------------------------------
# Worker-side execution (runs inside ``python -m repro.serve.worker``).

#: Per-process compiled-program cache, created on first use.
_cache = None
_cache_lock = threading.Lock()
_store = None
_store_dir_opened = None


def _worker_cache():
    global _cache
    if _cache is None:
        from ..api.session import DEFAULT_CACHE_ENTRIES
        from ..store import LRUCache

        with _cache_lock:
            if _cache is None:
                _cache = LRUCache(max_entries=DEFAULT_CACHE_ENTRIES)
    return _cache


def worker_cache_counters():
    """The worker cache's counters (the response cache block)."""
    return _worker_cache().counters()


def _open_store(store_dir):
    """The worker's store handle, reopened only when the directory
    changes (tests point one worker at several stores)."""
    global _store, _store_dir_opened
    if not store_dir:
        return None
    if _store is None or _store_dir_opened != store_dir:
        from ..store import ArtifactStore

        try:
            _store = ArtifactStore(store_dir)
            _store_dir_opened = store_dir
        except OSError:
            return None
    return _store


def compile_coalesced(source, profile, optimize=True, verify=True,
                      store=None, wait=COALESCE_WAIT_SECONDS):
    """Compile through the store with cold-key single-flight.

    On a store miss the caller takes an advisory *flight lock* (distinct
    from the store's internal entry lock, which the winner's ``save``
    takes itself) and re-checks the store once it holds it — so of N
    processes racing the same cold key, exactly one compiles and the
    rest load the winner's bytes.  A loser that cannot get the lock
    within ``wait`` compiles anyway: liveness beats dedup.  Returns
    ``(compiled, origin, fingerprint)`` with origin ``"store"`` or
    ``"compile"``; the fingerprint is the sha256 of the serialized
    artifact, taken *at the serialization boundary* — the store entry's
    own payload digest when the store is involved, a fresh pickle
    otherwise — because a program that has since been instantiated does
    not re-pickle canonically (or at all).
    """
    from ..api.toolchain import Toolchain
    from ..store.format import compute_key

    def fresh_compile():
        return Toolchain(profile=profile, optimize=optimize,
                         verify=verify).compile(source)

    if store is None:
        compiled = fresh_compile()
        return compiled, "compile", compiled_fingerprint(compiled)
    key = compute_key(source, profile, optimize)
    compiled = store.load(source, profile, optimize)
    if compiled is not None:
        return compiled, "store", store.payload_sha256(key)
    from ..store.locks import FileLock

    lock_path = os.path.join(store.locks_dir, "flight." + key[:32] + ".lock")
    with FileLock(lock_path, timeout=wait) as acquired:
        if acquired:
            compiled = store.load(source, profile, optimize)
            if compiled is not None:
                return compiled, "store", store.payload_sha256(key)
        compiled = fresh_compile()
        if store.save(source, profile, optimize, compiled):
            return compiled, "compile", store.payload_sha256(key)
        # Degraded store (lock timeout, disk error): the in-process
        # artifact is still good, so fingerprint it directly.
        return compiled, "compile", compiled_fingerprint(compiled)


def execute_serve_request(payload):
    """Compile (three-level cached) and run one validated request.

    Runs inside the worker process.  ``payload`` is the dict the server
    validated: ``source``, ``profile`` (registered name), ``opt``,
    ``input`` (bytes), ``entry``, ``engine``, ``budget`` (the resolved
    instruction limit), ``store_dir`` and ``name``.  Returns a plain
    picklable dict: the ``RunReport.to_json()`` row (with a ``cache``
    block), the CLI exit code for the HTTP status mapping, and the
    worker pid (the kill drills target it).
    """
    fault = payload.get("test_fault")
    if fault == "hang":
        # Armed only when the daemon runs with --allow-test-faults: a
        # request wedged outside the VM, for the deadline-kill drill.
        time.sleep(3600)
    elif fault == "exit":
        # Worker suicide mid-request, for the respawn/retry drill.
        os._exit(17)

    from ..api.profiles import as_profile
    from ..api.session import run_compiled
    from ..cli import EX_COMPILE, exit_code_for
    from ..frontend.errors import FrontendError
    from ..harness.linker import LinkError
    from ..obs.trace import tracer

    profile = as_profile(payload["profile"])
    optimize = payload.get("opt", True)
    budget = payload["budget"]
    cache_key = (payload["source"], profile.cache_key(), optimize)
    cache = _worker_cache()
    cached = cache.get(cache_key)
    if cached is not None:
        compiled, fingerprint = cached
        origin = "memory"
    else:
        store = _open_store(payload.get("store_dir"))
        try:
            with tracer().span("serve.compile", profile=profile.name,
                               program=payload.get("name", "program")):
                compiled, origin, fingerprint = compile_coalesced(
                    payload["source"], profile, optimize=optimize,
                    store=store)
        except (FrontendError, LinkError) as error:
            return {"error": f"compile error: {error}",
                    "cli_exit": EX_COMPILE, "origin": None,
                    "pid": os.getpid()}
        cache.put(cache_key, (compiled, fingerprint))
    if payload.get("mode") == "compile":
        from ..store.format import compute_key

        row = {"name": payload.get("name", "program"),
               "profile": profile.name, "opt": optimize, "origin": origin,
               "key": compute_key(payload["source"], profile, optimize),
               "output": fingerprint}
        return {"row": row, "cli_exit": 0, "origin": origin,
                "pid": os.getpid()}
    # run_compiled is the same execution path one-shot CLI runs take, so
    # serve responses are bit-identical to `repro run --json` apart from
    # wallclock and the cache block.
    report = run_compiled(compiled, profile=profile,
                          name=payload.get("name", "program"),
                          input_data=payload.get("input", b""),
                          entry=payload.get("entry", "main"),
                          engine=payload.get("engine"),
                          max_instructions=budget)
    report.cache = dict(origin=origin, memory=worker_cache_counters())
    row = report.to_json()
    # One serve-only extension: the program's stdout.  Clients talking
    # HTTP have no other channel for it; strip "output" (plus the
    # wallclock/cache/obs blocks) to recover the exact CLI --json row.
    row["output"] = report.output
    return {"row": row, "cli_exit": exit_code_for(report),
            "origin": origin, "pid": os.getpid()}


def compiled_fingerprint(compiled):
    """sha256 over a fresh pickle of ``compiled``.

    Only valid for a program that has **never been instantiated** —
    running attaches runtime closures that do not pickle.  Store-backed
    paths should prefer the entry's own ``payload_sha256`` (what
    :func:`compile_coalesced` returns), which is canonical for everyone
    who loaded those bytes."""
    import hashlib

    from ..store.format import dumps_program

    return hashlib.sha256(dumps_program(compiled)).hexdigest()


def warmup():
    """Pre-warm hook the worker entry point calls before serving: load
    the policy registry and touch the toolchain so the first real
    request pays neither import nor registry-build cost."""
    from ..api.profiles import as_profile
    from ..api.toolchain import Toolchain  # noqa: F401  (import warmth)

    as_profile("spatial")
    _worker_cache()
    return os.getpid()
