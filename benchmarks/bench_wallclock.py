"""Host wall-clock speedup of the closure-compiled engine.

Unlike the other benchmarks (which regenerate the paper's simulated
cost-model artifacts), this one measures the *host* axis: how fast the
VM itself runs each workload under the reference interpreter vs the
closure-compiled threaded-code engine.  It writes the canonical
``BENCH_interp.json`` at the repo root — the record the CI perf gate
(``scripts/ci.py``) compares against — plus a human-readable artifact.

Run directly for the full corpus:

    PYTHONPATH=src python benchmarks/bench_wallclock.py [--quick]

or through pytest (quick subset, with a conservative floor assertion):

    PYTHONPATH=src python -m pytest benchmarks/bench_wallclock.py -s
"""

import pathlib
import sys

from conftest import save_artifact

from repro.harness.stats import write_report
from repro.harness.wallclock import render_report, run_benchmarks

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_interp.json"


def test_wallclock_speedup():
    """Quick-subset gate: the compiled engine must stay clearly ahead of
    the interpreter.  The floor is deliberately below the recorded ~6x
    so shared-machine noise cannot flake the suite; the full-corpus
    number lives in BENCH_interp.json."""
    report = run_benchmarks(quick=True, repeats=2)
    save_artifact("wallclock_quick.txt", render_report(report))
    assert report["geomean_speedup"] >= 2.0, report["geomean_speedup"]


def main(argv):
    quick = "--quick" in argv
    report = run_benchmarks(quick=quick, repeats=3 if not quick else 2)
    print(render_report(report))
    if not quick:
        write_report(report, BENCH_JSON)
        print(f"\nrecorded {BENCH_JSON}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
