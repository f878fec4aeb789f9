"""The recorded cost-model reports and ``make ci``'s one baseline gate.

The committed ``BENCH_checkopt.json``, ``BENCH_temporal.json`` and
``BENCH_prove.json`` rows must be what the code computes today, and the
gate must compare a re-measured report with its recorded file like
against like, over the gate's subset, in the summary's direction."""

import os

import pytest

from repro.harness.stats import (
    LOOP_WORKLOADS,
    SUMMARIES,
    checkopt_report,
    gate,
    load_report,
    prove_report,
    temporal_overhead_report,
    write_report,
)

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

#: One pointer-chasing and one loop workload; compress's -O2 build
#: deletes six checks, each with a certificate that must replay.
PINNED = ("em3d", "compress")

VIEWS = [(checkopt_report, "BENCH_checkopt.json"),
         (temporal_overhead_report, "BENCH_temporal.json"),
         (prove_report, "BENCH_prove.json")]


def _recorded(name):
    return load_report(os.path.join(REPO_ROOT, name))


class TestCommittedReports:
    @pytest.mark.parametrize("view, recorded", VIEWS,
                             ids=[name for _, name in VIEWS])
    def test_committed_rows_are_current(self, view, recorded):
        rows = _recorded(recorded)["workloads"]
        assert view(PINNED)["workloads"] == {name: rows[name]
                                             for name in PINNED}

    @pytest.mark.parametrize("recorded, field, names", [
        ("BENCH_checkopt.json", "loop_geomean_overhead_on_pct",
         LOOP_WORKLOADS),
        ("BENCH_temporal.json", "geomean_temporal_pct", None),
        ("BENCH_prove.json", "loop_geomean_overhead_o2_pct", LOOP_WORKLOADS),
    ])
    def test_gated_summary_is_the_reports_own(self, recorded, field, names):
        report = _recorded(recorded)
        summary = SUMMARIES[report["benchmark"]]
        rows = report["workloads"]
        assert round(summary.over(rows, names or rows), 3) == report[field]


def _report(kind, values):
    key = SUMMARIES[kind].key
    return {"benchmark": kind,
            "workloads": {name: {key: value}
                          for name, value in values.items()}}


class TestGate:
    SUBSET = ("go", "lbm")

    def _recorded(self, tmp_path, kind, value):
        path = tmp_path / "BENCH_recorded.json"
        write_report(_report(kind, {"go": value, "lbm": value,
                                    "bisort": value}), path)
        return path

    # ``kind``, not ``benchmark``: pytest-benchmark owns that fixture name.
    @pytest.mark.parametrize("kind",
                             ["checkopt", "temporal-overhead", "prove"])
    @pytest.mark.parametrize("rise, passes", [(1.06, False), (1.04, True)])
    def test_cost_ceiling(self, tmp_path, kind, rise, passes):
        recorded = self._recorded(tmp_path, kind, 10.0)
        current = _report(kind, {"go": 10.0 * rise, "lbm": 10.0 * rise})
        passed, text = gate(current, recorded, self.SUBSET, 0.05)
        assert passed is passes
        assert "ceiling (+5%): 10.50%" in text
        assert ("REGRESSION" in text) is not passes

    @pytest.mark.parametrize("fall, passes", [(0.79, False), (0.81, True)])
    def test_speedup_floor(self, tmp_path, fall, passes):
        recorded = self._recorded(tmp_path, "vm-engine-wallclock", 3.0)
        current = _report("vm-engine-wallclock", {"go": 3.0 * fall,
                                                  "lbm": 3.0 * fall})
        passed, text = gate(current, recorded, self.SUBSET, 0.20)
        assert passed is passes
        assert "floor (-20%): 2.40x" in text

    def test_regressed_row_outside_the_subset_does_not_fail(self, tmp_path):
        recorded = self._recorded(tmp_path, "checkopt", 10.0)
        current = _report("checkopt", {"go": 10.0, "lbm": 10.0,
                                       "bisort": 1000.0})
        passed, _ = gate(current, recorded, self.SUBSET, 0.05)
        assert passed

    def test_missing_recorded_file_is_reported_and_passes(self, tmp_path):
        missing = tmp_path / "BENCH_missing.json"
        current = _report("prove", {"go": 50.0, "lbm": 50.0})
        passed, text = gate(current, missing, self.SUBSET, 0.05)
        assert passed
        assert f"no recorded baseline at {missing}" in text
