"""Host wall-clock benchmarks for the two VM engines.

This is the *other* time axis (see PERFORMANCE.md): not the simulated
x86 cost model the paper's figures are built from, but how fast the host
VM itself executes — the axis the closure-compiled engine
(:mod:`repro.vm.engine`) exists to improve.  ``run_benchmarks`` times
the full workload corpus under both the reference interpreter and the
compiled engine, excluding machine instantiation (memory-image setup is
engine-independent), and reports per-workload ops/sec plus the
engine-vs-engine speedup whose geometric mean the perf gate tracks.

``benchmarks/bench_wallclock.py`` and ``python -m repro bench`` are thin
wrappers; results are recorded in ``BENCH_interp.json`` at the repo
root (:func:`repro.harness.stats.write_report`) so the perf trajectory
is visible PR over PR and CI can fail on regressions
(:func:`repro.harness.stats.gate`).
"""

import time

#: Subset used by CI and ``--quick``: two scalar-heavy and two
#: pointer/call-heavy workloads, the extremes of the engine's fast paths.
QUICK_WORKLOADS = ("go", "compress", "health", "treeadd")

ENGINES = ("interp", "compiled")


def _time_engine(compiled, engine, repeats):
    """Best-of-``repeats`` execution seconds (plus one warm-up run that
    also sanity-checks the result and populates compiled templates)."""
    machine = compiled.instantiate(engine=engine)
    result = machine.run()
    instructions = result.stats.instructions
    best = None
    for _ in range(repeats):
        machine = compiled.instantiate(engine=engine)
        start = time.perf_counter()
        machine.run()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, instructions, result


def run_benchmarks(names=None, repeats=2, quick=False):
    """Time the workload corpus under both engines.

    Returns a report dict (see ``BENCH_interp.json``): per-workload
    seconds and ops/sec for each engine, the per-workload speedup, and
    the geometric-mean speedup.
    """
    from ..api import compile_source
    from ..workloads.programs import WORKLOADS
    from .stats import geomean

    if names is None:
        names = tuple(QUICK_WORKLOADS) if quick else tuple(WORKLOADS)
    workloads = {}
    speedups = []
    for name in names:
        workload = WORKLOADS[name]
        compiled = compile_source(workload.source)
        entry = {}
        instructions = None
        for engine in ENGINES:
            seconds, instructions, result = _time_engine(compiled, engine, repeats)
            if result.exit_code != workload.expected_exit:
                raise AssertionError(
                    f"{name} under {engine}: exit {result.exit_code}, "
                    f"expected {workload.expected_exit}")
            entry[engine] = {
                "seconds": round(seconds, 6),
                "ops_per_sec": round(instructions / seconds),
            }
        entry["instructions"] = instructions
        entry["speedup"] = round(
            entry["interp"]["seconds"] / entry["compiled"]["seconds"], 3)
        # The normalized per-workload headline (bench-v2 schema: every
        # BENCH_*.json carries workloads/{name}/value, metric, geomean
        # and config — diffable by scripts/bench_diff.py).
        entry["value"] = entry["speedup"]
        speedups.append(entry["speedup"])
        workloads[name] = entry
    mean = geomean(speedups)
    return {
        "schema": "bench-v2",
        "benchmark": "vm-engine-wallclock",
        "metric": "wallclock_speedup",
        "config": "interp-vs-compiled",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "engines": list(ENGINES),
        "repeats": repeats,
        "quick": bool(quick),
        "workloads": workloads,
        "geomean": round(mean, 3),
        "geomean_speedup": round(mean, 3),
    }


def render_report(report):
    lines = [
        "Wall-clock: reference interpreter vs closure-compiled engine",
        "",
        f"{'workload':<12} {'interp ms':>10} {'compiled ms':>12} "
        f"{'compiled ops/s':>15} {'speedup':>8}",
    ]
    for name, entry in report["workloads"].items():
        lines.append(
            f"{name:<12} {entry['interp']['seconds'] * 1000:>10.1f} "
            f"{entry['compiled']['seconds'] * 1000:>12.1f} "
            f"{entry['compiled']['ops_per_sec']:>15,} "
            f"{entry['speedup']:>7.2f}x")
    lines.append("")
    lines.append(f"geometric-mean speedup: {report['geomean_speedup']:.2f}x")
    return "\n".join(lines)
