"""The shared fault-injection registry (`repro.harness.faults`):
arming semantics, environment parsing, the store fault points, and the
subprocess hooks."""

import errno
import subprocess
import sys

import pytest

from repro.harness import faults


@pytest.fixture(autouse=True)
def clean_registry():
    faults.clear()
    yield
    faults.clear()


class TestRegistry:
    def test_unarmed_points_are_free(self):
        assert not faults.consume("torn_write")
        assert faults.mangle_payload(b"data") == b"data"
        faults.check_write_open()  # no raise
        faults.maybe_die("replace")  # no kill

    def test_install_fires_exactly_count_times(self):
        faults.install("eperm", times=2)
        assert faults.armed("eperm") == 2
        assert faults.consume("eperm")
        assert faults.consume("eperm")
        assert not faults.consume("eperm")
        assert faults.fired("eperm") == 2

    def test_install_accumulates(self):
        faults.install("bitflip")
        faults.install("bitflip")
        assert faults.armed("bitflip") == 2

    def test_unknown_name_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown fault"):
            faults.install("tornwrite")

    def test_clear_disarms_and_forgets(self):
        faults.install("torn_write")
        faults.consume("torn_write")
        faults.clear()
        assert faults.armed("torn_write") == 0
        assert faults.fired("torn_write") == 0


class TestFaultPoints:
    def test_torn_write_commits_a_prefix(self):
        faults.install("torn_write")
        data = bytes(range(100))
        torn = faults.mangle_payload(data)
        assert torn == data[:50]
        assert faults.mangle_payload(data) == data  # disarmed now

    def test_torn_write_never_commits_zero_bytes_of_nonempty(self):
        faults.install("torn_write")
        assert faults.mangle_payload(b"x") == b"x"[:1]

    def test_bitflip_changes_exactly_one_byte(self):
        faults.install("bitflip")
        data = bytes(100)
        flipped = faults.mangle_payload(data)
        assert len(flipped) == len(data)
        assert sum(a != b for a, b in zip(flipped, data)) == 1

    def test_eperm(self):
        faults.install("eperm")
        with pytest.raises(PermissionError):
            faults.check_write_open()

    def test_disk_full(self):
        faults.install("disk_full")
        with pytest.raises(OSError) as excinfo:
            faults.check_write_open()
        assert excinfo.value.errno == errno.ENOSPC

    def test_maybe_die_kills_the_process(self):
        code = (
            "from repro.harness import faults\n"
            "faults.install('sigkill_replace')\n"
            "faults.maybe_die('replace')\n"
            "print('survived')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == -9
        assert "survived" not in proc.stdout


class TestEnvArming:
    def run_child(self, spec, body):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import os\nos.environ['{faults.ENV_VAR}'] = {spec!r}\n"
             f"from repro.harness import faults\n{body}"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_spec_parsing(self):
        out = self.run_child(
            "torn_write:2, eperm",
            "print(faults.armed('torn_write'), faults.armed('eperm'))")
        assert out.split() == ["2", "1"]

    def test_empty_spec(self):
        out = self.run_child("", "print(faults.armed('torn_write'))")
        assert out.strip() == "0"

    def test_clear_suppresses_env_rearming(self):
        out = self.run_child(
            "eperm:3",
            "faults.clear()\nprint(faults.armed('eperm'))")
        assert out.strip() == "0"


class TestLegacyAlias:
    def test_echo_round_trip(self):
        assert faults.echo({"k": 1}) == {"k": 1}
