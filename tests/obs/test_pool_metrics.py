"""Worker metrics must merge back into the parent registry — exactly
once per successful attempt — including across a pool that lost a
worker to SIGKILL and recovered by requeueing."""

import pytest

from repro.harness.pool import PoolTask, run_tasks
from repro.obs import enable_metrics
from repro.obs.metrics import default_registry

BUMP = PoolTask("repro.harness.faults:bump_metric", (1,))


def bump_delta(before):
    after = default_registry().snapshot()
    return (after.get("repro_test_bump_total", 0)
            - before.get("repro_test_bump_total", 0))


@pytest.fixture
def snapshot_before():
    return default_registry().snapshot()


class TestMerge:
    def test_parallel_bumps_merge_exactly(self, snapshot_before):
        enable_metrics()
        results = run_tasks([BUMP] * 4, jobs=2, task_timeout=60.0)
        assert results == [1, 1, 1, 1]
        assert bump_delta(snapshot_before) == 4

    def test_serial_path_counts_in_process(self, snapshot_before):
        enable_metrics()
        assert run_tasks([BUMP] * 3, jobs=1) == [1, 1, 1]
        assert bump_delta(snapshot_before) == 3

    def test_pool_task_counter_bumped(self, snapshot_before):
        run_tasks([BUMP] * 2, jobs=1)
        after = default_registry().snapshot()
        assert (after["repro_pool_tasks_total"]
                - snapshot_before.get("repro_pool_tasks_total", 0)) == 2

    def test_disabled_obs_skips_worker_merge(self, snapshot_before):
        # Without obs enabled workers run the plain executor: results
        # come back bare and their registries die with them.
        results = run_tasks([BUMP] * 2, jobs=2, task_timeout=60.0)
        assert results == [1, 1]
        assert bump_delta(snapshot_before) == 0


class TestSigkillRecovery:
    def test_merge_survives_killed_worker(self, tmp_path, snapshot_before):
        # One task SIGKILLs its worker on the first attempt; requeueing
        # heals it.  Every bump merges exactly once — interrupted
        # neighbours re-run, but only the successful attempt returns an
        # envelope, so nothing double-counts.
        enable_metrics()
        marker = str(tmp_path / "kill-once")
        tasks = [BUMP,
                 PoolTask("repro.harness.faults:kill_self_once", (marker,)),
                 BUMP, BUMP]
        results = run_tasks(tasks, jobs=2, task_timeout=60.0)
        assert results == [1, "recovered", 1, 1]
        assert bump_delta(snapshot_before) == 3
        after = default_registry().snapshot()
        assert after.get("repro_pool_retries_total", 0) >= \
            snapshot_before.get("repro_pool_retries_total", 0)
