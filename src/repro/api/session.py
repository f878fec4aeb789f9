"""Sessions: compiled-program caching and batch execution.

A :class:`Session` is the stateful half of the facade: it memoizes
compiles keyed by ``(source, profile, optimization level)`` so repeated
runs — overhead sweeps, detection matrices, servers replaying request
streams — pay for each toolchain invocation once, and it exposes
``run_many`` batch execution that fans independent compile+run jobs out
over the process's warm worker pool (:func:`repro.harness.pool.run_tasks`),
returning a :class:`~repro.api.reports.BatchReport` whose content is
identical to a serial loop (every simulated machine is deterministic
except for the host-wallclock field).

The module-level :func:`run_source`/:func:`run_compiled` are the
sessionless one-shot forms the harness and benchmarks use when caching
is handled elsewhere.
"""

import hashlib
import os
import time
import warnings
from dataclasses import dataclass, replace

from ..store.format import compute_key, dumps_program
from ..store.locks import FileLock
from .env import resolve_env, resolve_store
from .profiles import as_profile
from .reports import BatchReport, report_from_result
from .toolchain import Toolchain, compile_source

#: Bound on the in-process compiled-program LRU (entries, not bytes:
#: modules are small and the bound exists to stop unbounded growth in
#: long-lived sessions like the serve daemon, not to meter memory).
DEFAULT_CACHE_ENTRIES = 256

#: How long a cold-key compile waits on another process's flight lock
#: before degrading to its own compile.
COALESCE_WAIT_SECONDS = 120.0


def open_store(store_dir=None, **kwargs):
    """Open the persistent artifact store the environment selects
    (``store_dir`` flag > ``REPRO_STORE``), or return ``None`` when no
    store is configured.  Extra kwargs reach
    :class:`repro.store.ArtifactStore` (bounds, lock timeout)."""
    resolved = resolve_store(store_dir)
    if resolved is None:
        return None
    from ..store import ArtifactStore

    return ArtifactStore(resolved, **kwargs)


def run_compiled(compiled, profile=None, name="program", input_data=b"",
                 entry="main", engine=None, observers=(), **kwargs):
    """Run a :class:`~repro.api.toolchain.CompiledProgram` once under a
    profile's runtime observers; returns a
    :class:`~repro.api.reports.RunReport`.  The machine's memory image
    is freed once the report is built: the machine, its libc, runtime
    and engine refer to each other, so only the cycle collector would
    free the image otherwise."""
    profile = as_profile(profile)
    run_observers = profile.make_observers() + tuple(observers)
    machine = compiled.instantiate(input_data=input_data,
                                   observers=run_observers, engine=engine,
                                   **kwargs)
    from ..obs import obs_block, obs_enabled
    from ..obs.trace import tracer

    span = tracer().start_span("vm.run", program=name, profile=profile.name,
                               engine=machine.engine_name)
    start = time.perf_counter()
    try:
        result = machine.run(entry=entry)
    except BaseException:
        span.finish(error=True)
        raise
    elapsed = time.perf_counter() - start
    stats = result.stats
    if stats is not None:
        span.set(instructions=stats.instructions, cost=stats.cost,
                 exit_code=result.exit_code)
    span.finish()
    report = report_from_result(result, name=name, profile=profile.name,
                                engine=machine.engine_name, compiled=compiled,
                                wallclock_seconds=elapsed)
    machine.memory.release()
    if obs_enabled():
        report.obs = obs_block()
    return report


def run_source(source, profile=None, name="program", input_data=b"",
               entry="main", optimize=True, verify=True, engine=None,
               observers=(), **kwargs):
    """Compile and execute in one call through the staged toolchain;
    returns a :class:`~repro.api.reports.RunReport`."""
    profile = as_profile(profile)
    compiled = compile_source(source, profile=profile, optimize=optimize,
                              verify=verify)
    return run_compiled(compiled, profile=profile, name=name,
                        input_data=input_data, entry=entry, engine=engine,
                        observers=observers, **kwargs)


@dataclass(frozen=True)
class RunRequest:
    """One batch item: a named program to run under a profile.

    Frozen and picklable, so :meth:`Session.run_many` can ship requests
    to worker processes as-is.
    """

    name: str
    source: str
    profile: object = None
    input_data: bytes = b""
    entry: str = "main"
    #: None means "use the session's setting" (filled by ``resolved``).
    optimize: bool = None
    verify: bool = None
    engine: str = None
    #: Artifact-store directory batch workers consult/warm (None: no
    #: store).  Filled from the session by ``resolved``.
    store_dir: str = None

    def resolved(self, optimize, verify, engine, store_dir=None):
        """Fill session-level defaults into unset fields."""
        request = self
        if request.engine is None:
            request = replace(request, engine=engine)
        if request.optimize is None:
            request = replace(request, optimize=optimize)
        if request.verify is None:
            request = replace(request, verify=verify)
        if request.store_dir is None and store_dir is not None:
            request = replace(request, store_dir=store_dir)
        return replace(request, profile=as_profile(request.profile))


#: The process's worker-side session (see :func:`worker_session`).
_worker = None


def worker_session(store_dir=None):
    """This process's worker-side :class:`Session` on ``store_dir``
    (``None``: no store).  Pool workers compile through it, so a worker
    opens the store once, not per task, keeps one LRU (for serve
    requests; batch items skip it), and takes the store's single-flight
    lock on a cold key.  A task naming another store replaces it."""
    global _worker
    if _worker is None or _worker.env.store != (store_dir or None):
        _worker = Session(jobs=1, store_dir=store_dir or "")
    return _worker


def execute_run_request(request):
    """Compile and run one :class:`RunRequest` (the pool task of a
    :meth:`Session.run_many` batch item, traced as one ``task.api_run``
    span) through the store of the worker's :func:`worker_session`, so
    batch workers share warm artifacts across processes; a store that
    cannot even open degrades to a plain compile.  The worker's
    in-process LRU is skipped: a warm worker outlives the submitting
    session, and a batch must not widen that session's cache scope."""
    from ..obs.trace import tracer

    with tracer().span("task.api_run"):
        session = worker_session(request.store_dir)
        compiled, origin = session._compile_cold(
            request.source, request.profile, request.optimize,
            request.verify)
        report = run_compiled(compiled, profile=request.profile,
                              name=request.name,
                              input_data=request.input_data,
                              entry=request.entry, engine=request.engine)
    if session.store is not None:
        report.cache = {"origin": origin,
                        "store": session.store.stats.as_dict()}
    return report


def _as_request(item):
    if isinstance(item, RunRequest):
        return item
    if isinstance(item, dict):
        return RunRequest(**item)
    # (name, source[, profile[, input_data]]) tuples.
    return RunRequest(*item)


class Session:
    """A compiled-program cache plus batch execution.

    ``engine``/``jobs``/``store_dir`` follow the flag > environment >
    default precedence of :func:`repro.api.resolve_env` (``store_dir``
    reads ``REPRO_STORE``); ``optimize``/``verify`` configure every
    toolchain the session builds.

    Caching is two-level: a size-bounded in-process LRU
    (``cache_entries``) in front of the optional persistent
    :class:`~repro.store.ArtifactStore` shared across processes and
    restarts.  A store that cannot open (bad permissions, unwritable
    path) degrades to in-process-only caching with a warning — the
    session never fails because its cache does.
    """

    def __init__(self, optimize=True, verify=True, engine=None, jobs=None,
                 store_dir=None, cache_entries=DEFAULT_CACHE_ENTRIES):
        self.env = resolve_env(engine=engine, jobs=jobs, store=store_dir)
        self.optimize = optimize
        self.verify = verify
        from ..obs.metrics import default_registry
        from ..store import LRUCache

        self._programs = LRUCache(max_entries=cache_entries)
        # Publish the in-process cache counters as repro_session_cache_*
        # series (weakref'd — dies with the session).
        default_registry().register_source(
            "repro_session_cache_", self._programs,
            lambda cache: {name: value
                           for name, value in cache.counters().items()
                           if isinstance(value, (int, float))})
        self.store = None
        if self.env.store is not None:
            try:
                from ..store import ArtifactStore

                self.store = ArtifactStore(self.env.store)
            except OSError as error:
                warnings.warn(
                    f"artifact store {self.env.store!r} unavailable "
                    f"({error}); falling back to the in-process cache",
                    RuntimeWarning, stacklevel=2)

    # -- compile cache -------------------------------------------------

    def compile(self, source, profile=None, optimize=None, verify=None):
        """Compile (memoized on source, profile identity and opt level);
        returns the cached :class:`CompiledProgram` on a repeat — from
        the in-process LRU first, then the persistent store, then a
        fresh toolchain run (which warms both).  ``optimize``/``verify``
        default to the session's settings.  (``verify`` is not part of
        the cache key: it only adds IR consistency checks and never
        changes the compiled output.)"""
        return self.lookup(source, profile, optimize, verify)[0]

    def lookup(self, source, profile=None, optimize=None, verify=None):
        """:meth:`compile`, also saying where the program came from:
        returns ``(compiled, origin)`` with origin ``"memory"``,
        ``"store"`` or ``"compile"``."""
        profile = as_profile(profile)
        optimize = self.optimize if optimize is None else optimize
        verify = self.verify if verify is None else verify
        key = (source, profile.cache_key(), optimize)
        compiled = self._programs.get(key)
        if compiled is not None:
            return compiled, "memory"
        compiled, origin = self._compile_cold(source, profile, optimize,
                                              verify)
        self._programs.put(key, compiled)
        return compiled, origin

    def _compile_cold(self, source, profile, optimize, verify):
        """A verified store hit skips the toolchain; a miss compiles
        under the key's *flight lock* (distinct from the entry lock the
        store's ``save`` takes) and re-checks the store once it holds
        it, so of N processes racing one cold key exactly one compiles
        and the rest load its bytes.  A process that cannot get the
        lock within :data:`COALESCE_WAIT_SECONDS` compiles anyway:
        liveness beats dedup."""
        toolchain = Toolchain(profile=profile, optimize=optimize,
                              verify=verify)
        store = self.store
        if store is None:
            return toolchain.compile(source), "compile"
        compiled = store.load(source, profile, optimize)
        if compiled is not None:
            return compiled, "store"
        key = compute_key(source, profile, optimize)
        flight = FileLock(os.path.join(store.locks_dir,
                                       "flight." + key[:32] + ".lock"),
                          timeout=COALESCE_WAIT_SECONDS)
        with flight as acquired:
            if acquired and os.path.exists(store.entry_path(key)):
                compiled = store.load(source, profile, optimize)
                if compiled is not None:
                    return compiled, "store"
            compiled = toolchain.compile(source)
            store.save(source, profile, optimize, compiled)
        return compiled, "compile"

    def fingerprint(self, compiled, source, profile=None, optimize=None):
        """sha256 naming ``compiled`` — this session's build of
        ``source`` — byte for byte: the store entry's payload digest
        when the store holds one (the bytes every process that loaded
        it agrees on), else the digest of the program's own pickle
        (the same before and after it runs)."""
        profile = as_profile(profile)
        optimize = self.optimize if optimize is None else optimize
        if self.store is not None:
            digest = self.store.payload_sha256(
                compute_key(source, profile, optimize))
            if digest is not None:
                return digest
        return hashlib.sha256(dumps_program(compiled)).hexdigest()

    @property
    def cached_programs(self):
        return len(self._programs)

    def cache_counters(self):
        """Hit/miss/eviction counters for both cache levels:
        ``{"memory": {...}, "store": {...} or None}``."""
        return {
            "memory": self._programs.counters(),
            "store": (self.store.stats.as_dict()
                      if self.store is not None else None),
        }

    def clear(self):
        """Empty the in-process cache (the persistent store, being
        shared state on disk, is managed via ``python -m repro cache``
        rather than dropped as a side effect)."""
        self._programs.clear()

    # -- execution -----------------------------------------------------

    def run(self, source, profile=None, name="program", input_data=b"",
            entry="main", engine=None, **kwargs):
        """Compile (cached) and run once; returns a
        :class:`~repro.api.reports.RunReport`.  ``engine`` overrides the
        session's resolved engine for this run."""
        profile = as_profile(profile)
        compiled, origin = self.lookup(source, profile)
        report = run_compiled(compiled, profile=profile, name=name,
                              input_data=input_data, entry=entry,
                              engine=engine if engine is not None
                              else self.env.engine, **kwargs)
        report.cache = dict(self.cache_counters(), origin=origin)
        return report

    def run_many(self, items, jobs=None, benchmark="session-batch",
                 metric="cost_units"):
        """Run a batch of :class:`RunRequest`\\ s (or ``(name, source,
        profile)`` tuples / kwargs dicts), fanning out over the
        process's warm worker pool (:func:`repro.harness.pool.run_tasks`)
        when ``jobs`` (or the session's resolved jobs) exceeds one.
        Results are returned in submission order inside a
        :class:`~repro.api.reports.BatchReport`; apart from host
        wallclock they are identical to a serial loop (deterministic
        machines).  Workers compile through their own session and the
        batch's store; the parent's compile cache is untouched.  Run
        names must be unique — they key the batch report."""
        requests = [_as_request(item).resolved(self.optimize, self.verify,
                                               self.env.engine,
                                               store_dir=self.env.store)
                    for item in items]
        seen = set()
        duplicates = []
        for request in requests:
            if request.name in seen:
                duplicates.append(request.name)
            seen.add(request.name)
        if duplicates:
            raise ValueError(f"duplicate run names in batch: {duplicates}; "
                             f"reports are keyed by name")
        jobs = jobs if jobs is not None else self.env.jobs
        if jobs <= 1:
            # In-process serial path rides the session's compile cache.
            reports = []
            for request in requests:
                compiled, origin = self.lookup(
                    request.source, request.profile,
                    optimize=request.optimize, verify=request.verify)
                report = run_compiled(
                    compiled, profile=request.profile, name=request.name,
                    input_data=request.input_data,
                    entry=request.entry, engine=request.engine)
                report.cache = dict(self.cache_counters(), origin=origin)
                reports.append(report)
        else:
            from ..harness.pool import PoolTask, run_tasks

            reports = run_tasks(
                [PoolTask("repro.api.session:execute_run_request", (request,))
                 for request in requests], jobs)
        profiles = {request.profile.name for request in requests}
        batch = BatchReport(
            benchmark=benchmark, metric=metric,
            config=profiles.pop() if len(profiles) == 1 else "mixed")
        for request, report in zip(requests, reports):
            batch.reports[request.name] = report
        return batch
