"""The crash-isolated pool: every robustness verdict, exercised."""

import os
import time

import pytest

from repro.fuzz.pool import IsolatedPool, PoolTask

ECHO = "repro.harness.faults:echo"
HANG = "repro.harness.faults:hang"
KILL = "repro.harness.faults:kill_self"
KILL_ONCE = "repro.harness.faults:kill_self_once"
FLAKY_ONCE = "repro.harness.faults:flaky_once"


@pytest.fixture(scope="module")
def pool():
    with IsolatedPool(jobs=2, task_timeout=15.0) as shared:
        yield shared


class TestHappyPath:
    def test_results_are_index_aligned(self, pool):
        outcomes = pool.run([PoolTask(ECHO, (value,))
                             for value in range(6)])
        assert [outcome.value for outcome in outcomes] == list(range(6))
        assert all(outcome.ok and outcome.attempts == 1
                   for outcome in outcomes)

    def test_rich_values_round_trip(self, pool):
        payload = {"nested": [1, 2, {"deep": (3, 4)}], "text": "päyload"}
        (outcome,) = pool.run([PoolTask(ECHO, (payload,))])
        assert outcome.value == payload

    def test_workers_stay_warm_across_runs(self, pool):
        pool.run([PoolTask(ECHO, (1,))])
        first = [worker.proc.pid for worker in pool._workers if worker]
        pool.run([PoolTask(ECHO, (2,))])
        second = [worker.proc.pid for worker in pool._workers if worker]
        assert set(second) <= set(first)


class TestTimeout:
    def test_hung_task_becomes_timeout_not_a_wedge(self, pool):
        started = time.monotonic()
        outcomes = pool.run([
            PoolTask(HANG, (3600.0,), timeout=1.0),
            PoolTask(ECHO, ("still-served",)),
        ])
        assert outcomes[0].status == "timeout"
        assert outcomes[1].ok and outcomes[1].value == "still-served"
        assert time.monotonic() - started < 10

    def test_timeout_is_not_retried(self, pool):
        (outcome,) = pool.run([PoolTask(HANG, (3600.0,), timeout=0.5)])
        assert outcome.status == "timeout"
        assert outcome.attempts == 1

    def test_pool_serves_after_timeout(self, pool):
        pool.run([PoolTask(HANG, (3600.0,), timeout=0.5)])
        (outcome,) = pool.run([PoolTask(ECHO, ("alive",))])
        assert outcome.ok and outcome.value == "alive"


class TestWorkerDeath:
    def test_persistent_killer_becomes_crash(self, pool):
        (outcome,) = pool.run([PoolTask(KILL)])
        assert outcome.status == "crash"
        assert outcome.attempts == 2  # requeued once first

    def test_death_heals_on_retry(self, pool, tmp_path):
        marker = str(tmp_path / "kill-once")
        (outcome,) = pool.run([PoolTask(KILL_ONCE, (marker,))])
        assert outcome.ok
        assert outcome.value == "recovered"
        assert outcome.attempts == 2

    def test_neighbours_survive_a_crashing_task(self, pool):
        outcomes = pool.run([PoolTask(ECHO, (index,)) for index in range(3)]
                            + [PoolTask(KILL)])
        assert [o.value for o in outcomes[:3]] == [0, 1, 2]
        assert outcomes[3].status == "crash"


class TestInBandErrors:
    def test_exception_retried_then_reported(self, pool):
        (outcome,) = pool.run([PoolTask("os.path:getsize",
                                        ("/nonexistent-path-xyz",))])
        assert outcome.status == "error"
        assert outcome.attempts == 2
        assert isinstance(outcome.error, OSError)

    def test_flake_heals_on_retry(self, pool, tmp_path):
        marker = str(tmp_path / "flaky-once")
        (outcome,) = pool.run([PoolTask(FLAKY_ONCE, (marker,))])
        assert outcome.ok and outcome.value == "recovered"
        assert outcome.attempts == 2

    def test_bad_call_path_is_an_error(self, pool):
        (outcome,) = pool.run([PoolTask("repro.harness.faults:nope")])
        assert outcome.status == "error"


class TestLifecycle:
    def test_sigkill_mid_task_is_survived(self, tmp_path):
        # SIGKILL lands on a worker mid-task: the parent sees pipe EOF,
        # retries on a fresh worker, and the task succeeds; the dead
        # worker is reaped (no zombie left behind).
        marker = str(tmp_path / "sigkill-marker")
        with IsolatedPool(jobs=1, task_timeout=15.0) as mine:
            (outcome,) = mine.run([PoolTask(KILL_ONCE, (marker,))])
            assert outcome.ok and outcome.attempts == 2
            first_pid = int(open(marker).read())
            assert not _pid_alive(first_pid)

    def test_close_kills_workers(self):
        mine = IsolatedPool(jobs=1, task_timeout=15.0)
        mine.run([PoolTask(ECHO, (1,))])
        pid = mine._workers[0].proc.pid
        mine.close()
        deadline = time.monotonic() + 5
        while _pid_alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _pid_alive(pid)
        with pytest.raises(RuntimeError):
            mine.run([PoolTask(ECHO, (1,))])

    def test_empty_batch(self, pool):
        assert pool.run([]) == []


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # Could be a zombie awaiting reap by its (dead or busy) parent.
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split()[2] != "Z"
    except OSError:
        return True
