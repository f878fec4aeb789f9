"""Process-pool fan-out of the evaluation matrix (``--jobs``)."""

import pickle

import pytest

from repro.api import resolve_jobs
from repro.harness import tables
from repro.harness.pool import run_tasks
from repro.harness.stats import MEMO, measure
from repro.softbound.config import FULL_SHADOW
from repro.vm.errors import Trap, TrapKind


@pytest.fixture
def empty_memo():
    """The evaluation memo emptied for one test, then restored."""
    saved = dict(MEMO)
    MEMO.clear()
    yield MEMO
    MEMO.clear()
    MEMO.update(saved)


class TestResolveJobs:
    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5
        assert resolve_jobs(2) == 2

    def test_serial_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert resolve_jobs() == 1


class TestTaskExecution:
    def test_measure_task_matches_direct_measurement(self):
        direct = measure("treeadd", FULL_SHADOW)
        (via_task,) = run_tasks([measure.task("treeadd", FULL_SHADOW)],
                                jobs=1)
        assert via_task.cost == direct.cost
        assert via_task.checks == direct.checks

    def test_run_tasks_preserves_submission_order(self):
        tasks = [measure.task("treeadd"), measure.task("compress")]
        results = run_tasks(tasks, jobs=1)
        assert [m.name for m in results] == ["treeadd", "compress"]

    def test_parallel_results_match_serial(self):
        tasks = [measure.task("treeadd"),
                 tables.attack_detection.task(tables.all_attacks()[0].name)]
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks(tasks, jobs=2)
        assert parallel[0].cost == serial[0].cost
        assert parallel[1] == serial[1]


class TestPrewarm:
    def test_prewarm_seeds_caches_and_is_idempotent(self):
        first = tables.prewarm(jobs=1, only="figure1")
        assert all(measure.task(name) in MEMO for name in
                   __import__("repro.workloads.programs",
                              fromlist=["WORKLOADS"]).WORKLOADS)
        again = tables.prewarm(jobs=1, only="figure1")
        assert again == 0  # everything already memoized

    def test_prewarmed_render_equals_lazy_render(self, empty_memo):
        for artifact, title in (("table3", "Table 3"), ("table4", "Table 4"),
                                ("sec64", "Section 6.4")):
            render = getattr(tables, "render_" + artifact)
            empty_memo.clear()
            lazy = render()  # serial, from an empty memo
            empty_memo.clear()
            assert tables.prewarm(jobs=2, only=artifact) > 0
            warmed = render()
            assert title in warmed
            assert warmed == lazy
            # The memo is consulted, not recomputed: render again and
            # compare (deterministic content either way).
            assert render() == warmed


class TestTrapPickling:
    def test_trap_roundtrips(self):
        trap = Trap(TrapKind.SPATIAL_VIOLATION, "store of 4 bytes",
                    address=0x1234, source="softbound")
        clone = pickle.loads(pickle.dumps(trap))
        assert clone.kind == trap.kind
        assert clone.detail == trap.detail
        assert clone.address == trap.address
        assert clone.source == trap.source
