"""Crash-isolated worker pool: the frame format, the worker loop and the
pool, for the fuzz campaign and the serve daemon alike.

``ProcessPoolExecutor`` shares one result pipe across workers, which
makes "this exact task hung/died" unattributable.  The fuzz campaign
and the serve daemon both need that attribution — a program that
wedges or kills its interpreter must become a per-task ``timeout`` or
``crash`` verdict, never a wedged pool — so this pool runs one task at
a time per worker over private pipes:

* each worker is a ``python -m repro.harness.pool`` subprocess that
  imports the toolchain before reading its first frame (a respawned
  worker re-warms the same way), then speaks length-prefixed pickle
  frames on stdin/stdout; its own ``sys.stdout`` is re-routed to
  stderr so stray prints can never corrupt framing;
* every task has a wallclock deadline; a worker that misses it is
  SIGKILLed, its slot respawns at once, and the task records
  ``timeout`` — never retried (hung programs also burn the VM
  instruction budget first, which is much cheaper; the deadline is the
  backstop for hangs outside the VM);
* a worker that dies mid-task (segfault, OOM kill, ``kill -9``) is
  detected by pipe EOF and respawned; the task is retried once after a
  short backoff and records ``crash`` if it kills its worker again;
* an exception the task function lets escape is likewise retried once,
  then records ``error`` carrying the exception.

Two faces share one queue and one set of drain threads:
:meth:`IsolatedPool.map` runs a batch and returns index-aligned
:class:`TaskOutcome`\\ s (the fuzz campaign), and
:meth:`IsolatedPool.submit` returns a ``concurrent.futures.Future`` per
task (the serve daemon, which calls :meth:`~IsolatedPool.start` first
so every worker is up before it announces itself).

Each task frame carries the submitting context's current span id, and
the worker opens that task's spans under it, so a trace crosses the
process boundary without orphans.
"""

import concurrent.futures
import importlib
import os
import pickle
import select
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from queue import Queue

from ..obs.trace import tracer

_HEADER = struct.Struct(">Q")

#: Statuses a task outcome can carry.
OK = "ok"
TIMEOUT = "timeout"
CRASH = "crash"
ERROR = "error"

#: Extra attempts a worker death or an in-band exception earns a task.
RETRIES = 1
#: Pause before retry ``n`` is ``BACKOFF_SECONDS * n``.
BACKOFF_SECONDS = 0.1


class PoolClosed(RuntimeError):
    """Work offered to a closed pool (e.g. a daemon shutting down)."""


@dataclass(frozen=True)
class PoolTask:
    """One unit of isolated work: ``call`` is a ``module:function``
    path resolved inside the worker; args/kwargs must be picklable."""

    call: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    #: Per-task wallclock deadline override (seconds), else pool default.
    timeout: float = None


@dataclass
class TaskOutcome:
    """What happened to one task, with the robustness verdicts
    first-class: ``ok``/``timeout``/``crash``/``error``."""

    status: str
    value: object = None
    #: The worker-side exception (or a string describing the failure).
    error: object = None
    attempts: int = 1

    @property
    def ok(self):
        return self.status == OK


# -- the frame format ----------------------------------------------------


def write_frame(stream, payload):
    """Pickle ``payload`` and write it as one length-prefixed frame (a
    payload that does not pickle raises before anything is written)."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_HEADER.pack(len(blob)) + blob)
    stream.flush()


def _read_exact(stream, count):
    chunks = bytearray()
    while len(chunks) < count:
        chunk = stream.read(count - len(chunks))
        if not chunk:
            return None
        chunks += chunk
    return bytes(chunks)


def read_frame(stream):
    """The next frame's payload from a blocking stream, or ``None`` at
    end of stream."""
    header = _read_exact(stream, _HEADER.size)
    if header is None:
        return None
    blob = _read_exact(stream, _HEADER.unpack(header)[0])
    return None if blob is None else pickle.loads(blob)


# -- the worker ----------------------------------------------------------


def resolve_call(path):
    """The object a ``module:function`` task path names."""
    module_name, _, attr = path.partition(":")
    if not attr:
        raise ValueError(f"task call {path!r} is not 'module:function'")
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _picklable_error(error):
    try:
        pickle.dumps(error)
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


def worker_main():
    """The worker loop: warm up, then answer ``(task_id, call, args,
    kwargs, parent_span)`` frames with ``(task_id, status, value)``
    frames until stdin closes.  Exceptions a task lets escape return
    in-band as ``error``; only death and a missed deadline are seen
    out of band."""
    from ..api.profiles import as_profile
    from ..api.session import run_compiled  # noqa: F401  (import warmth)

    as_profile("spatial")  # builds the policy registry
    stdin = sys.stdin.buffer
    # Claim the frame channel, then point fd 1 (and sys.stdout) at
    # stderr so stray prints from task code go somewhere harmless.
    frames = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr
    while True:
        frame = read_frame(stdin)
        if frame is None:
            return 0
        task_id, call, args, kwargs, parent = frame
        with tracer().remote_parent(parent):
            try:
                reply = (task_id, OK, resolve_call(call)(*args, **kwargs))
            except BaseException as error:  # noqa: BLE001 — isolation boundary
                reply = (task_id, ERROR, _picklable_error(error))
        try:
            write_frame(frames, reply)
        except Exception as error:
            write_frame(frames, (task_id, ERROR, RuntimeError(
                f"unpicklable task result: {error}")))


# -- the pool ------------------------------------------------------------


class _WorkerDied(Exception):
    pass


class _Deadline(Exception):
    pass


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


class _Worker:
    """One subprocess + its read buffer.  Not thread-safe; owned by one
    drain thread."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.pool"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=_worker_env(), close_fds=True)
        self._buffer = bytearray()

    @property
    def alive(self):
        return self.proc.poll() is None

    def kill(self):
        try:
            self.proc.kill()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=5)
        except Exception:
            pass

    def send(self, payload):
        try:
            write_frame(self.proc.stdin, payload)
        except (BrokenPipeError, OSError):
            raise _WorkerDied from None

    def _read_exact(self, count, deadline):
        fd = self.proc.stdout.fileno()
        while len(self._buffer) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _Deadline
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                raise _Deadline
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise _WorkerDied
            self._buffer += chunk
        blob = bytes(self._buffer[:count])
        del self._buffer[:count]
        return blob

    def receive(self, deadline):
        (length,) = _HEADER.unpack(self._read_exact(_HEADER.size, deadline))
        return pickle.loads(self._read_exact(length, deadline))


class IsolatedPool:
    """A fixed-width pool of warm, crash-isolated workers.

    :meth:`map` executes :class:`PoolTask`\\ s and returns index-aligned
    :class:`TaskOutcome`\\ s; :meth:`submit` enqueues one task and
    returns a ``Future[TaskOutcome]``.  Neither raises for task-level
    failures — those are statuses.  Workers start on demand (or all at
    once with :meth:`start`) and stay warm until :meth:`close`; use the
    pool as a context manager to close it.
    """

    def __init__(self, jobs=2, task_timeout=30.0):
        self.jobs = max(int(jobs), 1)
        self.task_timeout = task_timeout
        self._workers = [None] * self.jobs
        self._queue = Queue()
        self._threads = []
        self._lock = threading.Lock()
        self._closed = False
        self._busy = [False] * self.jobs
        self._spawns = self._kills = self._respawns = 0

    # -- lifecycle -----------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def start(self):
        """Spawn every worker now, not on first use; returns the pool."""
        for slot in range(self.jobs):
            self._worker_for(slot)
        self._start_threads()
        return self

    def _start_threads(self):
        with self._lock:
            if self._threads:
                return
            for slot in range(self.jobs):
                thread = threading.Thread(
                    target=self._drain, args=(slot,),
                    name=f"isolated-pool-{slot}", daemon=True)
                thread.start()
                self._threads.append(thread)

    def close(self):
        """Refuse new work, retire the drain threads and kill every
        worker."""
        self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5)
        with self._lock:
            for slot, worker in enumerate(self._workers):
                if worker is not None:
                    worker.kill()
                    self._workers[slot] = None

    # -- introspection -------------------------------------------------

    @property
    def queue_depth(self):
        """Tasks accepted but not yet picked up by a worker."""
        return self._queue.qsize()

    def worker_pids(self):
        """Live worker PIDs."""
        with self._lock:
            return [worker.proc.pid for worker in self._workers
                    if worker is not None and worker.alive]

    def counters(self):
        """Width, queue, in-flight and worker-lifecycle numbers (the
        serve daemon publishes them as ``repro_serve_*`` series)."""
        return {"workers": self.jobs, "queue_depth": self.queue_depth,
                "inflight": sum(self._busy),
                "worker_spawns_total": self._spawns,
                "worker_kills_total": self._kills,
                "worker_respawns_total": self._respawns}

    # -- the two faces -------------------------------------------------

    def submit(self, task):
        """Enqueue one :class:`PoolTask`; returns a
        ``Future[TaskOutcome]``."""
        if self._closed:
            raise PoolClosed("worker pool is closed")
        self._start_threads()
        future = concurrent.futures.Future()
        self._queue.put((future, task, tracer().current_span_id(), 0))
        return future

    def map(self, tasks):
        """Execute ``tasks``; returns index-aligned
        :class:`TaskOutcome`\\ s."""
        futures = [self.submit(task) for task in tasks]
        return [future.result() for future in futures]

    # -- the drain loop ------------------------------------------------

    def _worker_for(self, slot):
        with self._lock:
            if self._closed:
                raise PoolClosed("worker pool is closed")
            worker = self._workers[slot]
            if worker is None or not worker.alive:
                self._spawns += 1
                if worker is not None:
                    self._respawns += 1
                worker = self._workers[slot] = _Worker()
            return worker

    def _replace(self, slot):
        """Kill the slot's worker and, unless the pool is closing,
        respawn it at once."""
        with self._lock:
            worker = self._workers[slot]
            if worker is not None:
                worker.kill()
                self._kills += 1
            if self._closed:
                self._workers[slot] = None
                return
            self._spawns += 1
            self._respawns += 1
            self._workers[slot] = _Worker()

    def _drain(self, slot):
        while True:
            item = self._queue.get()
            if item is None:
                return
            future, task, parent, attempt = item
            if attempt == 0 and not future.set_running_or_notify_cancel():
                continue  # cancelled while queued
            self._busy[slot] = True
            try:
                outcome = self._run_one(slot, future, task, parent, attempt)
            except PoolClosed as error:
                future.set_exception(error)
                continue
            finally:
                self._busy[slot] = False
            if outcome is not None:
                future.set_result(outcome)

    def _run_one(self, slot, future, task, parent, attempt):
        """One attempt at ``task`` on ``slot``: the outcome, or ``None``
        when the task went back on the queue for a retry."""
        timeout = task.timeout if task.timeout is not None \
            else self.task_timeout
        deadline = time.monotonic() + timeout
        try:
            worker = self._worker_for(slot)
            worker.send((id(future), task.call, task.args, task.kwargs,
                         parent))
            reply_id, status, value = worker.receive(deadline)
            while reply_id != id(future):  # stale reply from a past task
                reply_id, status, value = worker.receive(deadline)
        except _Deadline:
            self._replace(slot)
            return TaskOutcome(
                TIMEOUT, error=f"no result within {timeout:.1f}s "
                               f"(worker killed and respawned)",
                attempts=attempt + 1)
        except _WorkerDied:
            self._replace(slot)
            status, value = CRASH, "worker process died"
        if status == OK:
            return TaskOutcome(OK, value=value, attempts=attempt + 1)
        if attempt < RETRIES and not self._closed:
            time.sleep(BACKOFF_SECONDS * (attempt + 1))
            self._queue.put((future, task, parent, attempt + 1))
            return None
        return TaskOutcome(status, error=value, attempts=attempt + 1)


if __name__ == "__main__":
    sys.exit(worker_main())
