"""Axis-1 gains of the loop-aware check optimizer (LICM + widening).

Regenerates the simulated instrumented-overhead comparison with the
loop passes off vs on and records the canonical ``BENCH_checkopt.json``
at the repo root — the baseline the CI opt-matrix leg
(``scripts/ci.py``) gates against.  Everything measured here is
cost-model units, deterministic on every host.

Run directly for the full corpus (records the JSON):

    PYTHONPATH=src python benchmarks/bench_checkopt.py

or through pytest (loop-workload subset, with the acceptance floor):

    PYTHONPATH=src python -m pytest benchmarks/bench_checkopt.py -s
"""

import pathlib
import sys

from conftest import save_artifact

from repro.harness.stats import (
    LOOP_WORKLOADS,
    checkopt_report,
    render_checkopt,
    write_report,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_checkopt.json"


def test_loop_passes_reduce_overhead():
    """Acceptance floor: on the array/loop workloads the loop passes
    must cut the geomean instrumented overhead by at least 15%, with
    behavioural equivalence asserted inside the measurement."""
    report = checkopt_report(LOOP_WORKLOADS)
    save_artifact("checkopt_loop_subset.txt", render_checkopt(report))
    assert report["loop_overhead_reduction_pct"] >= 15.0, report


def main(argv):
    report = checkopt_report()
    print(render_checkopt(report))
    write_report(report, BENCH_JSON)
    print(f"\nrecorded {BENCH_JSON}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
