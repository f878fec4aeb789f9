"""The serve drills on the pool's submit face, against real worker
subprocesses: results, deadline kills, crash respawn+retry; and the
worker-side compile path (the worker Session's cache stack)."""

import hashlib
import os

import pytest

from repro.api import Session, compile_source
from repro.harness.pool import CRASH, OK, TIMEOUT, IsolatedPool
from repro.serve.qos import DEFAULT_BUDGET
from repro.serve.workers import execute_serve_request, serve_task
from repro.store.format import dumps_program

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="POSIX subprocess pool drills")

SOURCE = """\
#include <stdio.h>
int main(void) {
    int a[4]; int i; int sum = 0;
    for (i = 0; i < 4; i++) a[i] = i + 1;
    for (i = 0; i < 4; i++) sum += a[i];
    printf("sum=%d\\n", sum);
    return 0;
}
"""


def payload(**overrides):
    base = {"mode": "run", "name": "t", "source": SOURCE,
            "profile": "spatial", "opt": True, "input": b"",
            "entry": "main", "engine": None, "budget": DEFAULT_BUDGET,
            "store_dir": None}
    base.update(overrides)
    return base


class TestExecuteServeRequest:
    """The worker-side function, run in-process for speed."""

    def test_clean_run(self):
        result = execute_serve_request(payload())
        assert result["cli_exit"] == 0
        assert result["row"]["output"] == "sum=10\n"
        assert result["row"]["trap"] is None
        assert result["pid"] == os.getpid()

    def test_compile_error_maps_to_exit_4(self):
        result = execute_serve_request(payload(source="int main( {"))
        assert result["cli_exit"] == 4
        assert "compile error" in result["error"]

    def test_budget_exhaustion_traps_resource_limit(self):
        loop = "int main(void) { int x = 0; while (1) { x++; } return x; }"
        result = execute_serve_request(payload(source=loop, profile="none",
                                               budget=50_000))
        assert result["cli_exit"] == 5
        assert result["row"]["trap"]["kind"] == "resource_limit"

    def test_memory_cache_hit_on_repeat(self):
        first = execute_serve_request(payload())
        again = execute_serve_request(payload())
        assert first["row"]["cache"]["origin"] in ("compile", "memory")
        assert again["row"]["cache"]["origin"] == "memory"

    def test_compile_mode_skips_execution(self, tmp_path):
        result = execute_serve_request(payload(
            mode="compile", store_dir=str(tmp_path / "store")))
        assert result["cli_exit"] == 0
        assert len(result["row"]["key"]) == 64
        assert len(result["row"]["output"]) == 64  # the fingerprint


class TestCoalescedCompile:
    """The single-flight entry point: a Session's store path."""

    def test_no_store_compiles(self):
        session = Session(store_dir="")
        compiled, origin = session.lookup(SOURCE, "spatial")
        fingerprint = session.fingerprint(compiled, SOURCE, "spatial")
        assert origin == "compile"
        assert fingerprint == hashlib.sha256(
            dumps_program(compiled)).hexdigest()
        assert len(fingerprint) == 64

    def test_store_roundtrip(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold_session = Session(store_dir=store_dir)
        cold, origin_cold = cold_session.lookup(SOURCE, "spatial")
        fp_cold = cold_session.fingerprint(cold, SOURCE, "spatial")
        warm_session = Session(store_dir=store_dir)
        warm, origin_warm = warm_session.lookup(SOURCE, "spatial")
        fp_warm = warm_session.fingerprint(warm, SOURCE, "spatial")
        assert (origin_cold, origin_warm) == ("compile", "store")
        # Both fingerprints are the store entry's payload digest, so
        # winner and loader agree byte-for-byte.
        assert fp_cold == fp_warm
        assert len(fp_cold) == 64

    def test_compile_after_run_fingerprints_the_unrun_artifact(self):
        # A no-store /run caches the program it then runs; a /compile
        # of the same program answers from that cache, and its
        # fingerprint is still the digest of the never-run artifact.
        source = SOURCE + "/* fingerprint after run */\n"
        run = execute_serve_request(payload(source=source))
        assert run["origin"] == "compile"
        again = execute_serve_request(payload(source=source, mode="compile"))
        assert again["origin"] == "memory"
        unrun = compile_source(source, "spatial")
        assert again["row"]["output"] == hashlib.sha256(
            dumps_program(unrun)).hexdigest()


class TestWarmPool:
    def test_submit_resolves_ok(self):
        with IsolatedPool(jobs=1).start() as pool:
            outcome = pool.submit(serve_task(payload())).result(timeout=120)
            assert outcome.status == OK
            assert outcome.value["row"]["output"] == "sum=10\n"
            # The work ran in the worker subprocess, not in-process.
            assert outcome.value["pid"] != os.getpid()
            assert outcome.value["pid"] in pool.worker_pids()

    def test_concurrent_submissions_all_resolve(self):
        with IsolatedPool(jobs=2).start() as pool:
            futures = [pool.submit(serve_task(payload(name=f"r{n}")))
                       for n in range(6)]
            outcomes = [f.result(timeout=240) for f in futures]
            assert all(o.status == OK for o in outcomes)
            outputs = {o.value["row"]["output"] for o in outcomes}
            assert outputs == {"sum=10\n"}

    def test_hang_resolves_timeout_and_respawns(self):
        with IsolatedPool(jobs=1, task_timeout=3.0).start() as pool:
            hung = pool.submit(serve_task(payload(test_fault="hang")))
            outcome = hung.result(timeout=60)
            assert outcome.status == TIMEOUT
            # The pool respawned the worker: the next request succeeds.
            healed = pool.submit(serve_task(payload())).result(timeout=120)
            assert healed.status == OK

    def test_worker_death_retries_then_crash(self):
        with IsolatedPool(jobs=1).start() as pool:
            # The fault rides the payload, so the retry dies too:
            # after the single infra retry the outcome is CRASH.
            outcome = pool.submit(
                serve_task(payload(test_fault="exit"))).result(timeout=120)
            assert outcome.status == CRASH
            assert outcome.attempts == 2
            healed = pool.submit(serve_task(payload())).result(timeout=120)
            assert healed.status == OK

    def test_closed_pool_rejects_submissions(self):
        pool = IsolatedPool(jobs=1).start()
        pool.close()
        from repro.harness.pool import PoolClosed

        with pytest.raises(PoolClosed):
            pool.submit(serve_task(payload()))
