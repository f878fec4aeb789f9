"""Section 6.1 ablation: re-running the optimizer over instrumented code.

The paper: "After the intermediate code has been instrumented with
SoftBound, we re-run the full suite of LLVM optimizations on the
instrumented code.  This simplifies the SoftBound pass, because
subsequent optimization passes will remove some redundant checks and
factor out common sub-expressions."

This bench measures that design choice across the 15 workloads: each is
compiled with ``optimize_checks`` off (raw instrumentation) and on
(copyprop → cse → checkelim → checkwiden → constfold → dce), and the
cost-model overhead over the uninstrumented baseline is compared.
(``benchmarks/bench_checkopt.py`` isolates the loop pass's contribution
within that pipeline.)

Structural claims asserted:

* cleanup never *increases* a workload's overhead;
* it removes instructions and/or checks on most workloads;
* behaviour is bit-identical (same exit code) everywhere.
"""

from dataclasses import replace

from conftest import save_artifact

from repro.api import run_source
from repro.softbound.config import FULL_SHADOW
from repro.vm.costs import overhead_percent
from repro.workloads.programs import WORKLOADS

RAW = replace(FULL_SHADOW, optimize_checks=False)


def _measure(workload, config):
    result = run_source(workload.source, profile=config)
    assert result.exit_code == workload.expected_exit, workload.name
    assert result.trap is None, workload.name
    return result.stats


def test_postopt_ablation(benchmark):
    rows = []
    improved = 0
    for name, workload in WORKLOADS.items():
        baseline = run_source(workload.source).stats
        raw = _measure(workload, RAW)
        cleaned = _measure(workload, FULL_SHADOW)
        raw_overhead = overhead_percent(baseline.cost, raw.cost)
        cleaned_overhead = overhead_percent(baseline.cost, cleaned.cost)
        rows.append((name, raw_overhead, cleaned_overhead,
                     raw.checks, cleaned.checks))
        assert cleaned.cost <= raw.cost, name
        if cleaned.cost < raw.cost or cleaned.checks < raw.checks:
            improved += 1

    header = (f"{'benchmark':<12} {'raw overhead':>14} {'cleaned':>10} "
              f"{'raw checks':>12} {'cleaned checks':>15}")
    lines = ["Post-instrumentation re-optimization ablation (Section 6.1)",
             "=" * len(header), header, "-" * len(header)]
    for name, raw_pct, cleaned_pct, raw_checks, cleaned_checks in rows:
        lines.append(f"{name:<12} {raw_pct:>13.1f}% {cleaned_pct:>9.1f}% "
                     f"{raw_checks:>12} {cleaned_checks:>15}")
    average_raw = sum(r[1] for r in rows) / len(rows)
    average_cleaned = sum(r[2] for r in rows) / len(rows)
    lines.append("-" * len(header))
    lines.append(f"{'average':<12} {average_raw:>13.1f}% {average_cleaned:>9.1f}%")
    save_artifact("sec61_postopt_ablation.txt", "\n".join(lines))

    # Re-optimization helps on a majority of the suite.
    assert improved >= len(WORKLOADS) // 2, f"only {improved} improved"
    assert average_cleaned <= average_raw

    compress = WORKLOADS["compress"]
    benchmark(lambda: run_source(compress.source, profile=FULL_SHADOW))
