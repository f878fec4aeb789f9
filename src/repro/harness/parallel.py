"""Process-pool fan-out for the workload×scheme evaluation matrix.

``python -m repro tables`` re-runs every workload under every
configuration, plus the attack, BugBench and server sweeps — dozens of
independent compile+run jobs that share nothing but code.  This module
fans them out over a ``ProcessPoolExecutor`` (``--jobs N`` /
``REPRO_JOBS``) while keeping the output *bit-identical* to a serial
run:

* the task list is built in a fixed order and results are consumed via
  ``Executor.map``, which preserves submission order regardless of
  completion order — rendering never observes scheduling;
* each task is a pure function of its ``(kind, name, config)``
  descriptor: workers recompute from source and return plain picklable
  results (measurements, detection tuples), which the parent uses to
  seed the same in-process caches a serial run fills lazily;
* every simulated machine is deterministic (the cost model has no
  wall-clock inputs), so a result computed in a worker is the result
  the parent would have computed itself.

Task kinds are dispatched by :func:`execute_task`; the table renderers'
cache-seeding lives in :mod:`repro.harness.tables` (``prewarm``).

Robustness: ``run_tasks`` used to inherit ``Executor.map``'s failure
mode — a worker that hangs blocks forever, and a worker killed by the
OS (OOM, ``kill -9``) poisons the whole pool.  It now waits on each
task with a wallclock deadline, rebuilds the pool when a task times out
or a worker dies, requeues the interrupted tasks (each task is charged
at most ``retries`` extra attempts), and raises
:class:`ParallelTaskError` naming the tasks that still failed instead
of wedging or dying with a bare ``BrokenProcessPool``.
"""

import os
from concurrent.futures import ProcessPoolExecutor, TimeoutError
from concurrent.futures.process import BrokenProcessPool

from ..obs.metrics import default_registry
from ..obs.trace import tracer, tracing_enabled

#: First element of the envelope observed workers wrap results in.
_OBS_MARKER = "__repro_obs__"

#: Per-task wallclock deadline for pool fan-out; generous because
#: matrix tasks compile + simulate whole benchmarks.  Override with
#: ``REPRO_TASK_TIMEOUT`` (seconds) or the ``task_timeout`` argument.
DEFAULT_TASK_TIMEOUT = 600.0


class ParallelTaskError(RuntimeError):
    """Raised when tasks still fail after the requeue budget.

    ``failures`` is a list of ``(index, task, reason)`` tuples — the
    position in the submitted task list, the task descriptor, and a
    string (or exception) saying what happened on the final attempt.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        summary = "; ".join(
            f"task[{index}] {task[0] if isinstance(task, tuple) else task}: "
            f"{reason}" for index, task, reason in self.failures[:5])
        extra = len(self.failures) - 5
        if extra > 0:
            summary += f"; (+{extra} more)"
        super().__init__(
            f"{len(self.failures)} parallel task(s) failed after "
            f"retry: {summary}")


def resolve_jobs(jobs=None):
    """Effective worker count — delegates to the centralized
    :func:`repro.api.resolve_jobs` (flag > ``REPRO_JOBS`` > serial)."""
    from ..api.env import resolve_jobs as _resolve_jobs

    return _resolve_jobs(jobs)


def execute_task(task):
    """Run one matrix task; returns its picklable result.

    Kinds:

    * ``("measure", workload_name, config_or_None)`` →
      :class:`~repro.harness.stats.WorkloadMeasurement`
    * ``("attack", attack_name)`` → ``(exploited, full, store)`` bools
    * ``("bug", bug_name)`` → ``(valgrind, mudflap, store, full)`` bools
    * ``("temporal", attack_name)`` →
      ``(exploited, spatial_outcome, temporal_detected)``
    * ``("server", server_name, config)`` →
      ``(trap_str_or_None, output_identical)``
    * ``("api_run", run_request)`` →
      :class:`~repro.api.reports.RunReport` (the
      :meth:`repro.api.Session.run_many` batch item)
    """
    kind = task[0]
    if kind == "py":
        # ("py", "module:attr", *args) — a generic picklable call, for
        # tooling and the robustness tests (hooks must be importable).
        from .pool import resolve_call

        return resolve_call(task[1])(*task[2:])
    if kind == "api_run":
        from ..api.session import execute_run_request

        return execute_run_request(task[1])
    if kind == "measure":
        from .stats import measure

        return measure(task[1], task[2])
    if kind == "attack":
        from . import tables

        return tables.attack_detection(task[1])
    if kind == "bug":
        from . import tables

        return tables.bug_detection(task[1])
    if kind == "temporal":
        from . import tables

        return tables.temporal_attack_detection(task[1])
    if kind == "server":
        from . import tables

        return tables.server_outcome(task[1], task[2])
    raise ValueError(f"unknown task kind {kind!r}")


def _task_label(task):
    return task[0] if isinstance(task, tuple) and task else str(task)


def _traced_execute(task):
    with tracer().span("task." + _task_label(task)):
        return execute_task(task)


def _snapshot_delta(before, after):
    """What one task added to a worker's registry.  Workers are reused
    across tasks, so returning a raw snapshot would re-report earlier
    tasks' counts; the delta merges cleanly."""
    delta = {}
    for key, value in after.items():
        if key.endswith("_min") or key.endswith("_max"):
            delta[key] = value
            continue
        grown = value - before.get(key, 0)
        if grown:
            delta[key] = grown
    return delta


def _execute_task_observed(task):
    """Pool-worker entry when the parent has observability on: run the
    task inside a span and envelope the result with the metrics this
    task added, for the parent to merge."""
    registry = default_registry()
    before = registry.snapshot()
    with tracer().span("task." + _task_label(task)):
        result = execute_task(task)
    return (_OBS_MARKER, result, _snapshot_delta(before, registry.snapshot()))


def _unwrap(value):
    """Merge and strip an observed worker's envelope (pass every other
    result through untouched)."""
    if (isinstance(value, tuple) and len(value) == 3
            and value[0] == _OBS_MARKER):
        default_registry().merge(value[2])
        return value[1]
    return value


def _kill_pool(pool):
    """Tear a (possibly broken) executor down hard: SIGKILL any live
    workers, drop queued work.  Gated — executor internals differ
    across versions and a cleanup path must never raise."""
    try:
        for process in list((pool._processes or {}).values()):
            try:
                process.kill()
            except Exception:
                pass
    except Exception:
        pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def run_tasks(tasks, jobs, task_timeout=None, retries=1):
    """Execute ``tasks``, fanning out over ``jobs`` processes; the
    result list is index-aligned with ``tasks`` (deterministic order).

    Each task is waited on with a wallclock deadline (``task_timeout``,
    ``REPRO_TASK_TIMEOUT``, or :data:`DEFAULT_TASK_TIMEOUT`).  A task
    that times out, crashes its worker, or raises is retried up to
    ``retries`` times in a fresh pool (tasks merely interrupted by a
    neighbour's failure are requeued without being charged); tasks
    still failing raise :class:`ParallelTaskError` listing every
    failure.  Serial execution (``jobs <= 1``) is untouched — failures
    propagate raw, timeouts don't apply.
    """
    tasks = list(tasks)
    registry = default_registry()
    registry.counter("repro_pool_tasks_total").inc(len(tasks))
    if jobs <= 1 or len(tasks) <= 1:
        if tracing_enabled():
            return [_traced_execute(task) for task in tasks]
        return [execute_task(task) for task in tasks]
    if task_timeout is None:
        task_timeout = float(os.environ.get("REPRO_TASK_TIMEOUT",
                                            DEFAULT_TASK_TIMEOUT))
    from ..obs import obs_enabled

    observed = obs_enabled()
    # Workers inherit the trace sink through REPRO_TRACE (exported by
    # enable_tracing); REPRO_METRICS rides along the same way so nested
    # runs inside workers behave as they would in the parent.  Observed
    # workers envelope each result with the metrics the task added and
    # the parent merges them back in — pool runs report aggregate
    # counters instead of dropping worker stats.
    runner = _execute_task_observed if observed else execute_task
    env_added = observed and not os.environ.get("REPRO_METRICS")
    if env_added:
        os.environ["REPRO_METRICS"] = "1"
    sentinel = object()
    results = [sentinel] * len(tasks)
    attempts = [0] * len(tasks)
    failures = {}
    pending = list(enumerate(tasks))
    try:
        while pending:
            workers = min(jobs, len(pending))
            pool = ProcessPoolExecutor(max_workers=workers)
            futures = [(index, task, pool.submit(runner, task))
                       for index, task in pending]
            pending = []
            broken = False
            for index, task, future in futures:
                if broken:
                    # The pool is gone; everything not already finished
                    # goes back in the queue (uncharged unless it failed).
                    if (future.done() and not future.cancelled()
                            and future.exception() is None):
                        results[index] = _unwrap(future.result())
                    else:
                        error = (future.exception()
                                 if future.done() and not future.cancelled()
                                 else None)
                        if error is not None and not isinstance(
                                error, BrokenProcessPool):
                            _charge(index, task, error, attempts, retries,
                                    pending, failures)
                        else:
                            pending.append((index, task))
                    continue
                try:
                    results[index] = _unwrap(
                        future.result(timeout=task_timeout))
                except TimeoutError:
                    broken = True
                    _kill_pool(pool)
                    registry.counter("repro_pool_rebuilds_total").inc()
                    _charge(index, task,
                            f"no result within {task_timeout:.0f}s",
                            attempts, retries, pending, failures)
                except BrokenProcessPool:
                    broken = True
                    _kill_pool(pool)
                    registry.counter("repro_pool_rebuilds_total").inc()
                    _charge(index, task, "worker process died",
                            attempts, retries, pending, failures)
                except Exception as error:  # task-level failure, pool fine
                    _charge(index, task, error, attempts, retries,
                            pending, failures)
            if not broken:
                pool.shutdown(wait=True)
    finally:
        if env_added:
            os.environ.pop("REPRO_METRICS", None)
    if failures:
        raise ParallelTaskError(sorted(failures.values()))
    return results


def _charge(index, task, reason, attempts, retries, pending, failures):
    """One failed attempt for ``task``: requeue while budget remains,
    else record the failure."""
    attempts[index] += 1
    if attempts[index] <= retries:
        default_registry().counter("repro_pool_retries_total").inc()
        pending.append((index, task))
    else:
        default_registry().counter("repro_pool_failures_total").inc()
        failures[index] = (index, task, reason)
