"""``run_tasks`` must not hang forever or die on a killed worker.

Regression suite for the pool-hardening: per-task wallclock deadlines,
worker-death detection (a worker SIGKILLed mid-run), retry-once, and
:class:`ParallelTaskError` reporting instead of a bare worker death or
an eternal wait.
"""

import time

import pytest

from repro.harness.pool import (DEFAULT_TASK_TIMEOUT, ParallelTaskError,
                                PoolTask, resolve_call, run_tasks)

SQRT = PoolTask("math:sqrt", (4.0,))
KILL = PoolTask("repro.harness.faults:kill_self")


class TestResolveCall:
    def test_dotted_attribute(self):
        assert resolve_call("os:path.basename")("/a/b") == "b"


class TestHangProtection:
    def test_hung_task_times_out_instead_of_wedging(self):
        started = time.monotonic()
        with pytest.raises(ParallelTaskError) as info:
            run_tasks([SQRT, PoolTask("time:sleep", (600,))], jobs=2,
                      task_timeout=1.0)
        assert time.monotonic() - started < 30
        ((index, task, reason),) = info.value.failures
        assert index == 1
        assert task.call == "time:sleep"
        assert "no result" in str(reason)

    def test_default_timeout_is_generous(self):
        # Matrix tasks compile+simulate whole benchmarks: the default
        # deadline must stay far above any legitimate task.
        assert DEFAULT_TASK_TIMEOUT >= 300

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "1.0")
        started = time.monotonic()
        with pytest.raises(ParallelTaskError):
            run_tasks([SQRT, PoolTask("time:sleep", (600,))], jobs=2)
        assert time.monotonic() - started < 30


class TestWorkerDeath:
    def test_sigkilled_worker_mid_run_is_reported_not_fatal(self):
        # One task SIGKILLs its worker mid-run.  Before the hardening
        # this surfaced as BrokenProcessPool (or poisoned every other
        # future); now the survivors complete and the killer is named.
        tasks = [SQRT, KILL, PoolTask("math:sqrt", (25.0,))]
        with pytest.raises(ParallelTaskError) as info:
            run_tasks(tasks, jobs=2, task_timeout=60.0)
        ((index, task, reason),) = info.value.failures
        assert index == 1
        assert "died" in str(reason)

    def test_interrupted_neighbours_are_requeued_and_complete(self, tmp_path):
        # A worker death that heals on retry: every result arrives,
        # index-aligned, with no exception.
        marker = str(tmp_path / "kill-once")
        tasks = [SQRT,
                 PoolTask("repro.harness.faults:kill_self_once", (marker,)),
                 PoolTask("math:sqrt", (25.0,))]
        results = run_tasks(tasks, jobs=2, task_timeout=60.0)
        assert results == [2.0, "recovered", 5.0]

    def test_flaky_task_retried_once(self, tmp_path):
        marker = str(tmp_path / "flaky-once")
        results = run_tasks(
            [SQRT, PoolTask("repro.harness.faults:flaky_once", (marker,))],
            jobs=2, task_timeout=60.0)
        assert results == [2.0, "recovered"]

    def test_deterministic_failure_reported_with_exception(self):
        with pytest.raises(ParallelTaskError) as info:
            run_tasks([SQRT, PoolTask("math:sqrt", (-4.0,))], jobs=2,
                      task_timeout=60.0)
        ((index, _, reason),) = info.value.failures
        assert index == 1
        assert isinstance(reason, ValueError)

    def test_error_message_names_tasks(self):
        with pytest.raises(ParallelTaskError) as info:
            run_tasks([PoolTask("math:sqrt", (-1.0,)), SQRT], jobs=2,
                      task_timeout=60.0)
        assert "task[0]" in str(info.value)


class TestSerialPathUntouched:
    def test_serial_failures_propagate_raw(self):
        with pytest.raises(ValueError):
            run_tasks([PoolTask("math:sqrt", (-1.0,))], jobs=1)

    def test_serial_results_align(self):
        assert run_tasks([SQRT, PoolTask("math:sqrt", (9.0,))], jobs=1) == \
            [2.0, 3.0]
