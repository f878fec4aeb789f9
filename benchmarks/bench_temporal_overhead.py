"""Temporal-checking overhead and detection acceptance.

Regenerates the spatial-only vs spatial+temporal instrumented-overhead
comparison over the workload corpus and records the canonical
``BENCH_temporal.json`` at the repo root — the baseline the CI temporal
leg (``scripts/ci.py``) gates against.  Everything measured here is
cost-model units, deterministic on every host, and behavioural
equivalence (temporal checking never changes a correct program) is
asserted inside the measurement.

Run directly for the full corpus (records the JSON):

    PYTHONPATH=src python benchmarks/bench_temporal_overhead.py

or through pytest (detection + overhead sanity, no recording):

    PYTHONPATH=src python -m pytest benchmarks/bench_temporal_overhead.py -s
"""

import pathlib
import sys

from conftest import save_artifact

from repro.harness.stats import (
    render_temporal_overhead,
    temporal_overhead_report,
    write_report,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_temporal.json"

#: Representative subset for the pytest acceptance (one array code, one
#: allocation-heavy Olden analogue, one allocator-churning interpreter).
QUICK_WORKLOADS = ("go", "health", "li")


def test_all_temporal_attacks_detected():
    """Acceptance: every temporal attack family must trap with a
    precise temporal_violation under spatial+temporal checking."""
    from repro.harness.tables import temporal_matrix

    matrix = temporal_matrix()
    missed = [name for name, (_, _, detected) in matrix.items() if not detected]
    assert not missed, f"temporal attacks not detected: {missed}"


def test_temporal_overhead_sane():
    """The temporal pass must stay transparent on correct programs
    (asserted inside the sweep) and its extra cost must stay a
    fraction, not a multiple, of the spatial-only build."""
    report = temporal_overhead_report(QUICK_WORKLOADS)
    save_artifact("temporal_overhead_subset.txt",
                  render_temporal_overhead(report))
    assert report["geomean_temporal_extra_pct"] < 100.0, report


def main(argv):
    report = temporal_overhead_report()
    print(render_temporal_overhead(report))
    write_report(report, BENCH_JSON)
    print(f"\nrecorded {BENCH_JSON}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
