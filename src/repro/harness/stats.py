"""Measurement helpers used by tests, the benchmark harness and ``make ci``.

Centralizes "run workload W under configuration C at optimization level
L and report the paper's metrics" so that Figure 1, Figure 2, the
Section 6.5 comparison and the three recorded cost-model reports
(``BENCH_checkopt.json``, ``BENCH_temporal.json``, ``BENCH_prove.json``)
all share one measurement path.  Each cell is one entry of the
evaluation matrix's memo (:data:`MEMO`), so the reports and the tables
reuse the uninstrumented and ``-O1`` spatial cells they have in common
instead of re-running them.

The recorded reports are views over that sweep (:func:`checkopt_report`,
:func:`temporal_overhead_report`, :func:`prove_report`); every
instrumented cell they read passes the sweep's oracle first
(:func:`measure_checked`).  :func:`gate` is ``make ci``'s one comparison
of a re-measured report with its recorded file.  Everything here is
simulated cost-model units; the wall-clock report
(:mod:`repro.harness.wallclock`) only borrows :func:`geomean`,
:func:`write_report`, :func:`load_report` and :func:`gate`.
"""

import functools
import inspect
import json
import math
import os
from dataclasses import dataclass, replace

from ..api import ProtectionProfile, compile_source, run_compiled
from ..prove import replay_certificate
from ..softbound.config import FIGURE2_CONFIGS, FULL_SHADOW, TEMPORAL_SHADOW
from ..vm.costs import overhead_percent
from ..workloads.programs import WORKLOADS
from .pool import PoolTask

#: The evaluation matrix's one memo: the :class:`PoolTask` that
#: computes a value -> the value.  Serial renders fill it lazily;
#: :func:`repro.harness.tables.prewarm` seeds it with worker results
#: under the same keys.
MEMO = {}


def memoized(function):
    """Memoize ``function`` in :data:`MEMO`, keyed by the pool task that
    computes it.  ``function.task(*args)`` builds that task, with the
    defaults filled in, so every spelling of one call shares an entry;
    the task's path names the memoized function, so a worker running it
    memoizes too."""
    call = f"{function.__module__}:{function.__name__}"
    signature = inspect.signature(function)

    def task(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return PoolTask(call, bound.args)

    @functools.wraps(function)
    def memo(*args, **kwargs):
        key = task(*args, **kwargs)
        if key not in MEMO:
            MEMO[key] = function(*key.args)
        return MEMO[key]

    memo.task = task
    return memo


@dataclass
class WorkloadMeasurement:
    name: str
    suite: str
    config_label: str
    exit_code: int
    trap: object
    output: str
    cost: int
    instructions: int
    memory_ops: int
    pointer_memory_ops: int
    checks: int
    temporal_checks: int
    metadata_loads: int
    metadata_stores: int
    metadata_bytes: int
    #: Checks the ``-O2`` prove pass deleted, each with a certificate
    #: that replayed (0 below ``-O2``).
    certificates: int

    @property
    def pointer_fraction(self):
        if self.memory_ops == 0:
            return 0.0
        return self.pointer_memory_ops / self.memory_ops


def _replayed_certificates(name, compiled):
    """The number of checks the prove pass deleted from ``compiled``,
    after asserting that each deletion carries a certificate and that
    every certificate replays against the formal semantics."""
    certificates = tuple(compiled.prove_certificates or ())
    for cert in certificates:
        ok, reason = replay_certificate(cert)
        if not ok:
            raise AssertionError(
                f"{name}: certificate replay counterexample at "
                f"{cert.function}:{cert.site} — {reason}")
    stats = compiled.check_opt_stats
    proved = ((getattr(stats, "proved_checks", 0) or 0)
              + (getattr(stats, "proved_temporal_checks", 0) or 0))
    if proved != len(certificates):
        raise AssertionError(
            f"{name}: {proved} checks deleted by proof but "
            f"{len(certificates)} certificates recorded")
    return len(certificates)


@memoized
def measure(workload_name, config=None, optimize=1):
    """Compile and run one workload under one configuration (a
    SoftBoundConfig, or None for the uninstrumented build) at one
    optimization level (memoized).  At ``optimize=2`` every check the
    prove pass deleted must carry a certificate that replays, or the
    measurement raises."""
    wl = WORKLOADS[workload_name]
    profile = ProtectionProfile.from_config(config)
    compiled = compile_source(wl.source, profile=profile, optimize=optimize)
    result = run_compiled(compiled, profile=profile, name=wl.name)
    stats = result.stats
    return WorkloadMeasurement(
        name=wl.name,
        suite=wl.suite,
        config_label=config.label if config is not None else "baseline",
        exit_code=result.exit_code,
        trap=result.trap,
        output=result.output,
        cost=stats.cost,
        instructions=stats.instructions,
        memory_ops=stats.memory_ops,
        pointer_memory_ops=stats.pointer_memory_ops,
        checks=stats.checks,
        temporal_checks=stats.temporal_checks,
        metadata_loads=stats.metadata_loads,
        metadata_stores=stats.metadata_stores,
        metadata_bytes=stats.metadata_bytes,
        certificates=_replayed_certificates(wl.name, compiled),
    )


def measure_checked(workload_name, config, optimize=1):
    """``(baseline, instrumented)`` measurements of one cell, after the
    sweep's oracle: instrumentation may cost, never change, a correct
    program, so the instrumented run must not trap and must exit and
    print exactly as the uninstrumented run does."""
    base = measure(workload_name)
    inst = measure(workload_name, config, optimize=optimize)
    if inst.trap is not None or inst.exit_code != base.exit_code \
            or inst.output != base.output:
        raise AssertionError(
            f"{workload_name} under {inst.config_label} -O{optimize}: "
            f"behaviour diverged ({inst.trap}, exit {inst.exit_code} vs "
            f"{base.exit_code})")
    return base, inst


def pointer_fractions():
    """Figure 1's series: {workload: fraction}, uninstrumented runs."""
    return {name: measure(name).pointer_fraction for name in WORKLOADS}


def overhead_matrix(configs=FIGURE2_CONFIGS, workload_names=None):
    """Figure 2's matrix: {config_label: {workload: overhead %}}, every
    cell checked by the sweep's oracle."""
    names = list(workload_names or WORKLOADS)
    matrix = {}
    for config in configs:
        row = {}
        for name in names:
            base, inst = measure_checked(name, config)
            row[name] = overhead_percent(base.cost, inst.cost)
        matrix[config.label] = row
    return matrix


def average(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- the recorded reports --------------------------------------------------

#: Workloads dominated by counted array loops: the loop passes' and the
#: prove pass's target population, and the basis of every ``loop_*``
#: summary.  The pointer-chasing Olden analogues execute data-dependent
#: access chains per node and are out of reach of affine widening.
LOOP_WORKLOADS = ("go", "lbm", "hmmer", "compress", "ijpeg", "libquantum")

_LOOP_OFF = replace(FULL_SHADOW, loop_optimize=False)


def geomean(values):
    """Geometric mean; a value at or below zero counts as 1e-9."""
    values = [max(v, 1e-9) for v in values]
    return math.exp(sum(map(math.log, values)) / len(values)) if values else 0.0


def ratio_geomean(percents):
    """Geometric mean of the cost ratios (1 + overhead), converted back
    to a percentage.  Unlike :func:`geomean` over the percentages, it
    is exact on a genuine 0% row (a fully proven workload)."""
    if not percents:
        return 0.0
    ratios = [1.0 + v / 100.0 for v in percents]
    return (math.exp(sum(map(math.log, ratios)) / len(ratios)) - 1.0) * 100.0


@dataclass(frozen=True)
class Summary:
    """A recorded report's gated summary: ``mean`` over one row key."""

    key: str
    mean: object
    higher_is_better: bool = False
    unit: str = "%"

    def over(self, rows, names):
        return self.mean([rows[name][self.key] for name in names])


#: The gated summary of each recorded report, by its ``benchmark`` field.
SUMMARIES = {
    "checkopt": Summary("overhead_on_pct", geomean),
    "temporal-overhead": Summary("temporal_overhead_pct", geomean),
    "prove": Summary("overhead_o2_pct", ratio_geomean),
    "vm-engine-wallclock": Summary("speedup", geomean,
                                   higher_is_better=True, unit="x"),
}


def _pct(base, inst):
    return round(overhead_percent(base.cost, inst.cost), 3)


def _reduction_pct(before, after):
    return round(100.0 * (1.0 - after / before), 2) if before else 0.0


def _report(benchmark, config, rows, **summaries):
    """A bench-v2 report: the per-workload rows plus summary fields,
    each ``(row key, workload names)`` averaged with the report's own
    mean (:data:`SUMMARIES`) and rounded like the rows."""
    mean = SUMMARIES[benchmark].mean
    report = {"schema": "bench-v2", "benchmark": benchmark,
              "metric": "instrumented_overhead_pct", "config": config,
              "workloads": rows}
    for field_name, (key, names) in summaries.items():
        values = [rows[name][key] for name in names]
        report[field_name] = round(mean(values), 3)
    return report


def checkopt_report(workload_names=None):
    """``BENCH_checkopt.json``: per workload, the Full-Shadow overhead
    with the loop pass (guarded check widening) off and on."""
    rows = {}
    for name in workload_names or WORKLOADS:
        base, off = measure_checked(name, _LOOP_OFF)
        _, on = measure_checked(name, FULL_SHADOW)
        rows[name] = {
            "overhead_off_pct": _pct(base, off),
            "overhead_on_pct": _pct(base, on),
            "checks_off": off.checks,
            "checks_on": on.checks,
            "checks_eliminated_pct": _reduction_pct(off.checks, on.checks),
            "metadata_loads_off": off.metadata_loads,
            "metadata_loads_on": on.metadata_loads,
            "value": _pct(base, on),
        }
    loop = [name for name in LOOP_WORKLOADS if name in rows]
    report = _report(
        "checkopt", FULL_SHADOW.label, rows,
        geomean=("overhead_on_pct", rows),
        geomean_overhead_off_pct=("overhead_off_pct", rows),
        geomean_overhead_on_pct=("overhead_on_pct", rows),
        loop_geomean_overhead_off_pct=("overhead_off_pct", loop),
        loop_geomean_overhead_on_pct=("overhead_on_pct", loop))
    report["loop_workloads"] = loop
    report["loop_overhead_reduction_pct"] = _reduction_pct(
        report["loop_geomean_overhead_off_pct"],
        report["loop_geomean_overhead_on_pct"])
    return report


def temporal_overhead_report(workload_names=None):
    """``BENCH_temporal.json``: per workload, the overhead of
    spatial-only and spatial+temporal checking over the uninstrumented
    run, and what temporal checking adds on top of spatial."""
    rows = {}
    for name in workload_names or WORKLOADS:
        base, spatial = measure_checked(name, FULL_SHADOW)
        _, temporal = measure_checked(name, TEMPORAL_SHADOW)
        rows[name] = {
            "spatial_overhead_pct": _pct(base, spatial),
            "temporal_overhead_pct": _pct(base, temporal),
            "temporal_extra_pct": _pct(spatial, temporal),
            "temporal_checks": temporal.temporal_checks,
            "checks": temporal.checks,
            "value": _pct(base, temporal),
        }
    return _report(
        "temporal-overhead", TEMPORAL_SHADOW.label, rows,
        geomean=("temporal_overhead_pct", rows),
        geomean_spatial_pct=("spatial_overhead_pct", rows),
        geomean_temporal_pct=("temporal_overhead_pct", rows),
        geomean_temporal_extra_pct=("temporal_extra_pct", rows))


def prove_report(workload_names=None):
    """``BENCH_prove.json``: per workload, the Full-Shadow overhead at
    ``-O1`` and at ``-O2``, with the ``-O0`` build checked by the
    oracle too and every ``-O2`` deletion certificate replayed."""
    rows = {}
    for name in workload_names or WORKLOADS:
        measure_checked(name, FULL_SHADOW, optimize=0)
        base, o1 = measure_checked(name, FULL_SHADOW)
        _, o2 = measure_checked(name, FULL_SHADOW, optimize=2)
        rows[name] = {
            "overhead_o1_pct": _pct(base, o1),
            "overhead_o2_pct": _pct(base, o2),
            "checks_o1": o1.checks,
            "checks_o2": o2.checks,
            "checks_deleted_pct": _reduction_pct(o1.checks, o2.checks),
            "certificates": o2.certificates,
            "value": _pct(base, o2),
        }
    loop = [name for name in LOOP_WORKLOADS if name in rows]
    report = _report(
        "prove", "ShadowSpace-Complete-O2", rows,
        geomean=("overhead_o2_pct", rows),
        geomean_overhead_o1_pct=("overhead_o1_pct", rows),
        geomean_overhead_o2_pct=("overhead_o2_pct", rows),
        loop_geomean_overhead_o1_pct=("overhead_o1_pct", loop),
        loop_geomean_overhead_o2_pct=("overhead_o2_pct", loop))
    report["loop_workloads"] = loop
    report["certificates"] = sum(row["certificates"] for row in rows.values())
    report["loop_checks_deleted_beyond_o1_pct"] = _reduction_pct(
        sum(rows[name]["checks_o1"] for name in loop),
        sum(rows[name]["checks_o2"] for name in loop))
    report["loop_overhead_reduction_beyond_o1_pct"] = _reduction_pct(
        report["loop_geomean_overhead_o1_pct"],
        report["loop_geomean_overhead_o2_pct"])
    return report


def _render(title, report, columns, footer):
    """A report as text: one row per workload, ``columns`` of
    ``(header, row key, width)`` (keys ending ``_pct`` print as
    percentages, the rest as counts), then the ``footer`` lines."""
    header = f"{'workload':12s} " + " ".join(
        f"{label:>{width}s}" for label, _, width in columns)
    lines = [title, "", header, "-" * len(header)]
    for name, row in report["workloads"].items():
        lines.append(f"{name:12s} " + " ".join(
            f"{row[key]:{width - 1}.1f}%" if key.endswith("_pct")
            else f"{row[key]:{width}d}" for _, key, width in columns))
    return "\n".join(lines + [""] + footer)


def render_checkopt(report):
    return _render(
        "Loop-aware check optimizer: instrumented overhead "
        "(softbound Full-Shadow), loop passes off vs on", report,
        [("off", "overhead_off_pct", 9), ("on", "overhead_on_pct", 9),
         ("checks off", "checks_off", 11), ("checks on", "checks_on", 11),
         ("elim", "checks_eliminated_pct", 7)],
        [f"geomean overhead (all {len(report['workloads'])}): "
         f"{report['geomean_overhead_off_pct']:.1f}% -> "
         f"{report['geomean_overhead_on_pct']:.1f}%",
         f"geomean overhead (loop workloads "
         f"{', '.join(report['loop_workloads'])}): "
         f"{report['loop_geomean_overhead_off_pct']:.1f}% -> "
         f"{report['loop_geomean_overhead_on_pct']:.1f}% "
         f"({report['loop_overhead_reduction_pct']:.1f}% reduction)"])


def render_temporal_overhead(report):
    return _render(
        "Temporal checking overhead: unprotected -> spatial (Full-"
        "Shadow) -> spatial+temporal, cost-model units", report,
        [("spatial", "spatial_overhead_pct", 9),
         ("temporal", "temporal_overhead_pct", 9),
         ("extra", "temporal_extra_pct", 8),
         ("t-checks", "temporal_checks", 10)],
        [f"geomean overhead: spatial {report['geomean_spatial_pct']:.1f}% "
         f"-> spatial+temporal {report['geomean_temporal_pct']:.1f}% "
         f"(+{report['geomean_temporal_extra_pct']:.1f}% on top of "
         f"spatial)"])


def render_prove(report):
    return _render(
        "Solver-backed static check elimination (-O2 vs -O1, "
        "softbound Full-Shadow)", report,
        [("O1", "overhead_o1_pct", 9), ("O2", "overhead_o2_pct", 9),
         ("checks O1", "checks_o1", 11), ("checks O2", "checks_o2", 11),
         ("deleted", "checks_deleted_pct", 8), ("certs", "certificates", 6)],
        [f"geomean overhead (all {len(report['workloads'])}): "
         f"{report['geomean_overhead_o1_pct']:.1f}% -> "
         f"{report['geomean_overhead_o2_pct']:.1f}%",
         f"loop workloads ({', '.join(report['loop_workloads'])}): "
         f"overhead {report['loop_geomean_overhead_o1_pct']:.1f}% -> "
         f"{report['loop_geomean_overhead_o2_pct']:.1f}% "
         f"({report['loop_overhead_reduction_beyond_o1_pct']:.1f}% "
         f"beyond -O1); dynamic sb_check deleted "
         f"{report['loop_checks_deleted_beyond_o1_pct']:.1f}%",
         f"certificates recorded and replayed: {report['certificates']}"])


def write_report(report, path):
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path):
    with open(path) as handle:
        return json.load(handle)


def gate(current, recorded_path, names, tolerance):
    """Compare a re-measured report with its recorded file, ``make
    ci``-style; returns ``(passed, text)``.

    Both sides are summarized the way the report summarizes itself
    (:data:`SUMMARIES`), over the gate's workload subset ``names``, so
    a subset measurement is compared like against like with the
    recorded full corpus (which falls back to all its rows when it
    shares none with the subset).  A cost summary fails above
    ``recorded * (1 + tolerance)``, a speedup below
    ``recorded * (1 - tolerance)``.  A missing recorded file passes,
    with a note saying so.
    """
    summary = SUMMARIES[current["benchmark"]]
    unit = summary.unit
    now = summary.over(current["workloads"], names)
    if not os.path.exists(recorded_path):
        return True, (f"no recorded baseline at {recorded_path}; "
                      f"current: {now:.2f}{unit}")
    rows = load_report(recorded_path)["workloads"]
    basis = [name for name in names if name in rows] or list(rows)
    recorded = summary.over(rows, basis)
    if summary.higher_is_better:
        bound = recorded * (1.0 - tolerance)
        passed, word, sign = now >= bound, "floor", "-"
    else:
        bound = recorded * (1.0 + tolerance)
        passed, word, sign = now <= bound, "ceiling", "+"
    text = (f"recorded {summary.mean.__name__}({summary.key}) over "
            f"{', '.join(basis)} in {os.path.basename(recorded_path)}: "
            f"{recorded:.2f}{unit}   current: {now:.2f}{unit}   "
            f"{word} ({sign}{tolerance:.0%}): {bound:.2f}{unit}")
    if not passed:
        text += (f"\nREGRESSION: {current['benchmark']} {summary.key} "
                 f"crossed the recorded {word}")
    return passed, text
