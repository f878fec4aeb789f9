"""The process's warm batch pool follows its caller's environment.

``run_tasks`` (behind ``Session.run_many`` and ``repro tables``) keeps
one warm pool per process.  Its workers read the ``REPRO_*``
environment they were spawned with — the trace sink, ``REPRO_METRICS``,
the plugins — so a pool spawned under another environment must be
replaced, never reused, and every task already submitted to a replaced
pool must still resolve.
"""

import concurrent.futures
import json
import os
import sys
import textwrap
import threading

from repro.api import Session
from repro.harness.pool import PoolClosed, PoolTask, run_tasks, shared_pool
from repro.obs import disable_metrics, enable_metrics
from repro.obs.metrics import default_registry
from repro.obs.trace import disable_tracing, enable_tracing

CLEAN = "int main(void) { int a[4]; a[3] = 7; return a[3]; }"
ITEMS = [("none", CLEAN, "none"), ("spatial", CLEAN, "spatial"),
         ("full", CLEAN, "full")]
BUMP = PoolTask("repro.harness.faults:bump_metric", (1,))


def bumps():
    return default_registry().snapshot().get("repro_test_bump_total", 0)


class TestTraceSink:
    def test_traced_batch_after_an_untraced_one(self, tmp_path):
        Session().run_many(ITEMS, jobs=2)  # spawns the pool untraced
        path = tmp_path / "trace.jsonl"
        enable_tracing(path)
        try:
            batch = Session().run_many(ITEMS, jobs=2)
        finally:
            disable_tracing()
        assert [report.exit_code for report in batch] == [7, 7, 7]
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        tasks = [span for span in spans if span["name"] == "task.api_run"]
        assert len(tasks) == len(ITEMS)
        assert all(span["pid"] != os.getpid() for span in tasks)
        # No orphans: every root is a task, every parent is in the trace.
        ids = {span["span"] for span in spans}
        assert {span["name"] for span in spans if "parent" not in span} \
            == {"task.api_run"}
        assert all(span["parent"] in ids for span in spans
                   if "parent" in span)


class TestMetrics:
    def test_worker_merges_follow_enable_and_disable(self):
        batch = Session().run_many(ITEMS, jobs=2)  # spawns the pool plain
        assert all(report.obs is None for report in batch)
        enable_metrics()
        before = bumps()
        assert run_tasks([BUMP] * 4, jobs=2) == [1, 1, 1, 1]
        assert bumps() - before == 4
        batch = Session().run_many(ITEMS, jobs=2)
        assert all(report.obs is not None for report in batch)
        disable_metrics()
        before = bumps()
        assert run_tasks([BUMP] * 2, jobs=2) == [1, 1]
        assert bumps() == before
        batch = Session().run_many(ITEMS, jobs=2)
        assert all(report.obs is None for report in batch)


class TestPlugins:
    def test_plugin_named_after_the_pool_spawned(self, tmp_path,
                                                 monkeypatch):
        from repro.policy import load_plugins, unregister_policy

        Session().run_many(ITEMS, jobs=2)  # spawns the pool plugin-free
        # A transform-based plugin with a variant of its own: compiling
        # it needs the policy registered in the worker.
        (tmp_path / "poolplug.py").write_text(textwrap.dedent("""
            from dataclasses import replace

            from repro.policy import CheckerPolicy, register_policy
            from repro.softbound.config import FULL_SHADOW

            class PoolPlugin(CheckerPolicy):
                name = "pool-plugin"
                description = "registered through REPRO_PLUGINS"
                family = "plugin"
                config = replace(FULL_SHADOW, variant="pool_plugin")

            register_policy(PoolPlugin)
        """))
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")])))
        monkeypatch.setenv("REPRO_PLUGINS", "poolplug")
        load_plugins(extra=["poolplug"])
        try:
            batch = Session().run_many(
                [("plugin", CLEAN, "pool-plugin"), ("spatial", CLEAN,
                                                     "spatial")], jobs=2)
        finally:
            unregister_policy("pool-plugin")
        assert batch["plugin"].exit_code == 7
        assert batch["plugin"].stats.checks == batch["spatial"].stats.checks


class TestReplacement:
    def test_replaced_pool_resolves_every_submitted_task(self):
        pool = shared_pool(2)
        hang = PoolTask("repro.harness.faults:hang", (3600.0,), timeout=600)
        futures = [pool.submit(hang) for _ in range(4)]
        assert shared_pool(1) is not pool  # another width: replaced
        done, pending = concurrent.futures.wait(futures, timeout=60)
        assert not pending
        assert all(isinstance(future.exception(), PoolClosed)
                   for future in done)
        (outcome,) = shared_pool(1).map([BUMP])
        assert outcome.ok


class TestConcurrentBatches:
    def test_threads_share_one_pool(self):
        """More submitting threads than cores, with a short switch
        interval: every batch gets its own values back, in order, from
        the one pool."""
        results = {}

        def batch(offset):
            results[offset] = run_tasks(
                [PoolTask("math:sqrt", (float(n * n),))
                 for n in range(offset, offset + 6)], jobs=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=batch, args=(10 * k,))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {10 * k: [float(n) for n in range(10 * k,
                                                            10 * k + 6)]
                           for k in range(4)}
