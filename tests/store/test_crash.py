"""Crash-consistency drills: real subprocesses, real SIGKILL, real
concurrent writers.  The contract under test: a crash at any instant
leaves the store loadable, and contention never deadlocks."""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.store import ArtifactStore

from storeutil import PROGRAM, REPO_ROOT, run_python, store_env

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="POSIX signal/lock drills")


def compile_snippet(tag=""):
    """Code for a child process: compile+run PROGRAM through a Session
    that persists to REPRO_STORE, print a result line."""
    return (
        "import json\n"
        "from repro.api import Session\n"
        f"source = {PROGRAM!r}\n"
        "session = Session()\n"
        "report = session.run(source, profile='spatial')\n"
        "print(json.dumps({'exit_code': report.exit_code,"
        " 'output': report.output, 'origin': report.cache['origin'],"
        f" 'tag': {tag!r}}}))\n"
    )


def result_line(proc):
    line = proc.stdout.strip().splitlines()[-1]
    return json.loads(line)


class TestKillMidWrite:
    def test_sigkill_between_tmp_and_replace(self, tmp_path):
        """Die after the tmp file is written but before the atomic
        replace: the store must contain no entry (just a tmp orphan),
        and the next run recompiles cleanly."""
        store_dir = tmp_path / "store"
        victim = run_python(
            compile_snippet("victim"),
            store_env(store=store_dir, store_faults="sigkill_replace:1"))
        assert victim.returncode == -signal.SIGKILL

        store = ArtifactStore(store_dir)
        assert store.stats_report()["entries"] == 0
        tmp_orphans = [name for name in os.listdir(store.objects_dir)
                       if ".tmp." in name]
        assert tmp_orphans, "expected the torn tmp file to be left behind"

        survivor = run_python(compile_snippet("survivor"),
                              store_env(store=store_dir), check=True)
        result = result_line(survivor)
        assert result["origin"] == "compile"
        assert result["output"] == "sum 84\n"
        # And the survivor's write landed.
        assert ArtifactStore(store_dir).stats_report()["entries"] == 1

    def test_sigkill_while_holding_the_flight_lock(self, tmp_path):
        """Die while holding a cold key's flight lock, between compile
        and save: flock dies with its holder, so the next process takes
        the lock without waiting out its timeout and compiles."""
        store_dir = tmp_path / "store"
        victim = run_python(
            compile_snippet("victim"),
            store_env(store=store_dir, store_faults="sigkill_locked:1"))
        assert victim.returncode == -signal.SIGKILL

        survivor = run_python(compile_snippet("survivor"),
                              store_env(store=store_dir),
                              timeout=60, check=True)
        result = result_line(survivor)
        assert result["origin"] == "compile"
        store = ArtifactStore(store_dir)
        assert store.stats_report()["entries"] == 1
        report = store.verify()
        assert not report.corrupt

    def test_killed_store_passes_cache_verify(self, tmp_path):
        """After a mid-write SIGKILL the CLI verifier reports a clean
        (if empty-ish) store — exit code 0."""
        store_dir = tmp_path / "store"
        run_python(compile_snippet(),
                   store_env(store=store_dir,
                             store_faults="sigkill_replace:1"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "cache", "verify",
             "--store", str(store_dir), "--json"],
            cwd=REPO_ROOT, env=store_env(), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["corrupt"] == []


class TestConcurrentWriters:
    def test_two_processes_racing_the_same_key(self, tmp_path):
        """Both racers must finish with identical results; the store
        must end with exactly one verified entry."""
        store_dir = tmp_path / "store"
        env = store_env(store=store_dir)
        racers = [subprocess.Popen(
            [sys.executable, "-c", compile_snippet(f"racer{index}")],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True) for index in range(2)]
        results = []
        for racer in racers:
            out, err = racer.communicate(timeout=180)
            assert racer.returncode == 0, err
            results.append(json.loads(out.strip().splitlines()[-1]))
        assert [r["exit_code"] for r in results] == [84, 84]
        assert [r["output"] for r in results] == ["sum 84\n"] * 2

        store = ArtifactStore(store_dir)
        assert store.stats_report()["entries"] == 1
        report = store.verify()
        assert (report.checked, report.ok) == (1, 1)

    def test_warm_reader_during_writer(self, tmp_path):
        """A process that finds the entry already on disk reports a
        store hit and identical behaviour."""
        store_dir = tmp_path / "store"
        run_python(compile_snippet("writer"), store_env(store=store_dir),
                   check=True)
        reader = run_python(compile_snippet("reader"),
                            store_env(store=store_dir), check=True)
        result = result_line(reader)
        assert result["origin"] == "store"
        assert result["exit_code"] == 84
        assert result["output"] == "sum 84\n"


def herd_snippet(tag):
    """Code for a herd member: single-flight compile of PROGRAM through
    a Session's store path (REPRO_STORE), printing origin + artifact
    fingerprint."""
    return (
        "import json\n"
        "from repro.api import Session\n"
        f"source = {PROGRAM!r}\n"
        "session = Session()\n"
        "compiled, origin = session.lookup(source, 'spatial')\n"
        "fp = session.fingerprint(compiled, source, 'spatial')\n"
        "print(json.dumps({'origin': origin, 'fp': fp,"
        f" 'tag': {tag!r}}}))\n"
    )


class TestThunderingHerd:
    """The two-process race, grown to serve-pool width: N workers all
    ask for the same cold key through the single-flight coalescer."""

    HERD = 6

    def test_one_compile_everyone_bit_identical(self, tmp_path):
        store_dir = tmp_path / "store"
        env = store_env(store=store_dir)
        herd = [subprocess.Popen(
            [sys.executable, "-c", herd_snippet(f"worker{index}")],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
            for index in range(self.HERD)]
        results = []
        for member in herd:
            out, err = member.communicate(timeout=300)
            assert member.returncode == 0, err
            results.append(json.loads(out.strip().splitlines()[-1]))

        origins = sorted(r["origin"] for r in results)
        # Exactly one process compiled; the herd loaded its bytes.
        assert origins == ["compile"] + ["store"] * (self.HERD - 1), \
            [(r["tag"], r["origin"]) for r in results]
        # And every member holds the bit-identical artifact: all the
        # fingerprints are the store entry's own payload digest.
        assert len({r["fp"] for r in results}) == 1
        assert len(results[0]["fp"]) == 64

        store = ArtifactStore(store_dir)
        assert store.stats_report()["entries"] == 1
        report = store.verify()
        assert (report.checked, report.ok) == (1, 1)
