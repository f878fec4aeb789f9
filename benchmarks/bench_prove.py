"""-O2 solver-backed static check elimination: the recorded gains.

Regenerates the simulated -O1 vs -O2 comparison under the full-shadow
spatial profile and records the canonical ``BENCH_prove.json`` at the
repo root — the baseline the CI prove-smoke leg (``scripts/ci.py
--prove-smoke``) gates against.  The measurement itself asserts
behavioural equivalence across opt levels and replays every deletion
certificate against the formal semantics; cost-model units only, so the
report is deterministic on every host.

Run directly for the full corpus (records the JSON):

    PYTHONPATH=src python benchmarks/bench_prove.py

or through pytest (loop-workload subset, with the acceptance floor):

    PYTHONPATH=src python -m pytest benchmarks/bench_prove.py -s
"""

import pathlib
import sys

from conftest import save_artifact

from repro.harness.stats import (
    LOOP_WORKLOADS,
    prove_report,
    render_prove,
    write_report,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_prove.json"

#: Acceptance floor: dynamic sb_check executions deleted beyond -O1,
#: aggregated over the loop workloads.
LOOP_DELETION_FLOOR_PCT = 15.0


def test_prove_deletes_loop_checks():
    """Acceptance floor: across the array/loop workloads, -O2 must
    delete at least 15% of the dynamically executed sb_check instances
    that survive -O1 — with equivalence and certificate replay asserted
    inside the measurement."""
    report = prove_report(LOOP_WORKLOADS)
    save_artifact("prove_loop_subset.txt", render_prove(report))
    assert (report["loop_checks_deleted_beyond_o1_pct"]
            >= LOOP_DELETION_FLOOR_PCT), report


def main(argv):
    report = prove_report()
    print(render_prove(report))
    write_report(report, BENCH_JSON)
    print(f"\nrecorded {BENCH_JSON}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
