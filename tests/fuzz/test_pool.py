"""The crash-isolated pool's batch face (``map``): every robustness
verdict, exercised.  The serve drills run the same pool's ``submit``
face in tests/serve/test_workers.py."""

import json
import os
import sys
import textwrap
import threading
import time

import pytest

from repro.harness import pool as pool_module
from repro.harness.pool import IsolatedPool, PoolTask

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
        outcomes = pool.map([PoolTask(ECHO, (value,))
                             for value in range(6)])
        assert [outcome.value for outcome in outcomes] == list(range(6))
        assert all(outcome.ok and outcome.attempts == 1
                   for outcome in outcomes)

    def test_rich_values_round_trip(self, pool):
        payload = {"nested": [1, 2, {"deep": (3, 4)}], "text": "päyload"}
        (outcome,) = pool.map([PoolTask(ECHO, (payload,))])
        assert outcome.value == payload

    def test_workers_stay_warm_across_runs(self, pool):
        pool.map([PoolTask(ECHO, (1,))])
        first = [worker.proc.pid for worker in pool._workers if worker]
        pool.map([PoolTask(ECHO, (2,))])
        second = [worker.proc.pid for worker in pool._workers if worker]
        assert set(second) <= set(first)


class TestTimeout:
    def test_hung_task_becomes_timeout_not_a_wedge(self, pool):
        started = time.monotonic()
        outcomes = pool.map([
            PoolTask(HANG, (3600.0,), timeout=1.0),
            PoolTask(ECHO, ("still-served",)),
        ])
        assert outcomes[0].status == "timeout"
        assert outcomes[1].ok and outcomes[1].value == "still-served"
        assert time.monotonic() - started < 10

    def test_timeout_is_not_retried(self, pool):
        (outcome,) = pool.map([PoolTask(HANG, (3600.0,), timeout=0.5)])
        assert outcome.status == "timeout"
        assert outcome.attempts == 1

    def test_pool_serves_after_timeout(self, pool):
        pool.map([PoolTask(HANG, (3600.0,), timeout=0.5)])
        (outcome,) = pool.map([PoolTask(ECHO, ("alive",))])
        assert outcome.ok and outcome.value == "alive"


class TestWorkerDeath:
    def test_persistent_killer_becomes_crash(self, pool):
        (outcome,) = pool.map([PoolTask(KILL)])
        assert outcome.status == "crash"
        assert outcome.attempts == 2  # requeued once first

    def test_death_heals_on_retry(self, pool, tmp_path):
        marker = str(tmp_path / "kill-once")
        (outcome,) = pool.map([PoolTask(KILL_ONCE, (marker,))])
        assert outcome.ok
        assert outcome.value == "recovered"
        assert outcome.attempts == 2

    def test_neighbours_survive_a_crashing_task(self, pool):
        outcomes = pool.map([PoolTask(ECHO, (index,)) for index in range(3)]
                            + [PoolTask(KILL)])
        assert [o.value for o in outcomes[:3]] == [0, 1, 2]
        assert outcomes[3].status == "crash"


class TestInBandErrors:
    def test_exception_retried_then_reported(self, pool):
        (outcome,) = pool.map([PoolTask("os.path:getsize",
                                        ("/nonexistent-path-xyz",))])
        assert outcome.status == "error"
        assert outcome.attempts == 2
        assert isinstance(outcome.error, OSError)

    def test_flake_heals_on_retry(self, pool, tmp_path):
        marker = str(tmp_path / "flaky-once")
        (outcome,) = pool.map([PoolTask(FLAKY_ONCE, (marker,))])
        assert outcome.ok and outcome.value == "recovered"
        assert outcome.attempts == 2

    def test_bad_call_path_is_an_error(self, pool):
        (outcome,) = pool.map([PoolTask("repro.harness.faults:nope")])
        assert outcome.status == "error"


class TestLifecycle:
    def test_sigkill_mid_task_is_survived(self, tmp_path):
        # SIGKILL lands on a worker mid-task: the parent sees pipe EOF,
        # retries on a fresh worker, and the task succeeds; the dead
        # worker is reaped (no zombie left behind).
        marker = str(tmp_path / "sigkill-marker")
        with IsolatedPool(jobs=1, task_timeout=15.0) as mine:
            (outcome,) = mine.map([PoolTask(KILL_ONCE, (marker,))])
            assert outcome.ok and outcome.attempts == 2
            first_pid = int(open(marker).read())
            assert not _pid_alive(first_pid)

    def test_close_kills_workers(self):
        mine = IsolatedPool(jobs=1, task_timeout=15.0)
        mine.map([PoolTask(ECHO, (1,))])
        pid = mine._workers[0].proc.pid
        mine.close()
        deadline = time.monotonic() + 5
        while _pid_alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _pid_alive(pid)
        with pytest.raises(RuntimeError):
            mine.map([PoolTask(ECHO, (1,))])

    def test_timeout_replacement_closes_the_killed_workers_pipes(self):
        with IsolatedPool(jobs=1, task_timeout=15.0) as mine:
            mine.map([PoolTask(ECHO, (1,))])
            hung = mine._workers[0]
            (outcome,) = mine.map([PoolTask(HANG, (3600.0,), timeout=0.5)])
            assert outcome.status == "timeout"
            assert mine._workers[0] is not hung
            assert hung.proc.stdin.closed and hung.proc.stdout.closed

    def test_close_closes_every_workers_pipes(self):
        mine = IsolatedPool(jobs=2, task_timeout=15.0)
        mine.map([PoolTask(ECHO, (index,)) for index in range(4)])
        workers = [worker for worker in mine._workers if worker is not None]
        assert workers
        mine.close()
        assert all(worker.proc.stdin.closed and worker.proc.stdout.closed
                   for worker in workers)

    def test_empty_batch(self, pool):
        assert pool.map([]) == []

    def test_queue_depth_counts_tasks_beyond_the_width(self):
        # The serve daemon admits on this right after a submit, before
        # a drain thread may have picked the task up.
        with IsolatedPool(jobs=2, task_timeout=15.0) as mine:
            futures = [mine.submit(PoolTask(HANG, (3600.0,), timeout=1.0))
                       for _ in range(3)]
            assert mine.queue_depth == 1
            outcomes = [future.result(timeout=30) for future in futures]
        assert [outcome.status for outcome in outcomes] == ["timeout"] * 3

    def test_accepted_count_survives_concurrent_submitters(self):
        # More submitting threads than cores, with a short switch
        # interval: a lost update would leave the count off zero.
        with IsolatedPool(jobs=2, task_timeout=15.0) as mine:
            def submit_batch():
                futures = [mine.submit(PoolTask(ECHO, (n,)))
                           for n in range(25)]
                for future in futures:
                    future.result(timeout=60)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=submit_batch)
                           for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            # A future's done-callbacks run just after its waiters wake.
            deadline = time.monotonic() + 5
            while mine._accepted and time.monotonic() < deadline:
                time.sleep(0.01)
            assert mine._accepted == 0

    def test_task_garbage_is_freed_before_the_next_task(self, tmp_path,
                                                        monkeypatch):
        # With automatic collection off in the worker, only the worker
        # loop's own collection between tasks can free the cycle.
        (tmp_path / "cyclehooks.py").write_text(textwrap.dedent("""
            import gc
            import weakref

            class Node:
                pass

            def make_cycle():
                global REF
                gc.disable()
                node = Node()
                node.self = node
                REF = weakref.ref(node)

            def cycle_freed():
                gc.enable()
                return REF() is None
        """))
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")])))
        with IsolatedPool(jobs=1, task_timeout=30.0) as mine:
            made, freed = mine.map([PoolTask("cyclehooks:make_cycle"),
                                    PoolTask("cyclehooks:cycle_freed")])
        assert made.ok
        assert freed.ok and freed.value is True


class TestSeededBug:
    def test_kill_once_drill_catches_a_pool_without_retry(self, tmp_path,
                                                          monkeypatch):
        # Negative control for TestWorkerDeath: with the retry budget
        # patched to zero the same drill must report the death.
        monkeypatch.setattr(pool_module, "RETRIES", 0)
        marker = str(tmp_path / "kill-once")
        with IsolatedPool(jobs=1, task_timeout=15.0) as mine:
            (outcome,) = mine.map([PoolTask(KILL_ONCE, (marker,))])
        assert outcome.status == "crash"
        assert outcome.attempts == 1


class TestTraceContext:
    def test_worker_spans_nest_under_the_submitting_span(self, tmp_path):
        from repro.obs.trace import disable_tracing, enable_tracing, tracer

        path = tmp_path / "trace.jsonl"
        enable_tracing(path)
        try:
            with IsolatedPool(jobs=1, task_timeout=60.0) as mine:
                with tracer().span("fuzz.seed"):
                    (outcome,) = mine.map([PoolTask(
                        "repro.api.toolchain:compile_source",
                        ("int main(void) { return 0; }",))])
        finally:
            disable_tracing()
        assert outcome.ok
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        (seed,) = [span for span in spans if span["name"] == "fuzz.seed"]
        stages = [span for span in spans if span["name"].startswith("stage.")]
        assert stages
        assert all(span["pid"] != seed["pid"] for span in stages)
        assert all(span["parent"] == seed["span"] for span in stages)


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
