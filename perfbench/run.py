"""Run one workload of the pipeline benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run it from the repository root: the program under test is imported
from ``src/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from a
traced phase beside an untraced one) with ``--trace 1``.  Scratch files
live under ``.perfbench-work/`` and are removed on exit.

glibc adapts its mmap threshold to the sizes a process frees, so
whether a fresh machine's 36 MiB image is page-faulted in anew or
reuses mapped memory flips with process history (a 4x swing in
``CompiledProgram.instantiate``).  The benchmark pins the threshold at
glibc's default (which also turns the adaptation off) for itself and
every process it starts, so every instantiate pays for fresh memory,
as it does in a new process.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("corpus", "fresh-batch", "serve-warm")
#: ``--workload all`` runs every workload in its own process, in turn.
ALL = "all"
#: glibc's default M_MMAP_THRESHOLD; setting it explicitly disables the
#: dynamic threshold.
MALLOC_PIN = ("MALLOC_MMAP_THRESHOLD_", "131072")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + (ALL,))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args):
    """One command for the whole benchmark: each workload's summary and
    JSON line, in turn; fails if any workload fails."""
    status = 0
    for workload in WORKLOADS:
        status |= subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)]).returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == ALL:
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing "
              f"(run from a full checkout)", file=sys.stderr)
        return 2
    if os.environ.get(MALLOC_PIN[0]) != MALLOC_PIN[1]:
        os.environ[MALLOC_PIN[0]] = MALLOC_PIN[1]
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)]
                 + list(sys.argv[1:] if argv is None else argv))
    # The program's own environment knobs would change what is measured.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["PYTHONPATH"] = SRC
    sys.path[:0] = [SRC, ROOT]

    from perfbench import common, corpus, fresh, serve

    runners = {"corpus": corpus.run, "fresh-batch": fresh.run,
               "serve-warm": serve.run}
    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        result = runners[args.workload](args.seed, args.seconds,
                                        bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    common.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
