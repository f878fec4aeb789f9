"""``fresh-batch``: never-seen random programs through ``run_many``.

Each batch is one program of a seeded ``randprog`` stream: the clean
program and one ``mutate`` defect, each under the five compile cells,
sent as one ``Session(jobs=2, store_dir=<fresh dir>).run_many`` call.
Every cell misses every cache and writes the artifact store, so this
workload measures the compile stages, the ``harness.parallel`` pool and
``store.put``.  Latency is one batch: the time a fuzzing user waits for
one program's verdict, normalised to the reference host speed
(:mod:`perfbench.calibrate`).
"""

import gc
import tempfile
import time

from .calibrate import HostClock
from .common import (BASELINE_CELL, CELLS, E2E_RATIOS, O2_RATIOS, Result,
                     TraceSink, geomean_ratio, median, median_setup,
                     rusage_peak_mb, share, tail)
from .layers import Counts, probe_programs, report_layers, trace_path
from .reduce import Trace

JOBS = 2
SETUP_REPEATS = 5
#: Program seeds of benchmark seed ``n`` start at ``(n + 1) *
#: SEED_BLOCK``, so runs with different seeds never share a program.
#: Block 0 holds the set-up program, the same in every run.
SEED_BLOCK = 1_000_000
#: The size class: ``randprog`` programs drawn with this statement
#: budget, keeping those with at least ``MIN_STATEMENTS`` statements
#: (about 50-line programs).  Large enough that compiling, not the
#: fixed cost of a fresh machine, is most of a cell; narrow enough that
#: seeds measure the pipeline rather than the luck of the draw.
MAX_STATEMENTS = 36
MIN_STATEMENTS = 28


def program_stream(first_seed):
    """Yield ``(program seed, clean, mutant)`` for the size class, in
    seed order from ``first_seed``."""
    from repro.workloads.randprog import generate, mutate

    program_seed = first_seed
    while True:
        clean = generate(program_seed, max_statements=MAX_STATEMENTS)
        if clean.statement_count >= MIN_STATEMENTS:
            yield program_seed, clean, mutate(clean)
        program_seed += 1


def cell_name(kind, program_seed, profile, level):
    return f"{kind}-{program_seed}-{profile}-O{level}"


def batch_requests(program_seed, clean, mutant):
    from repro.api import RunRequest

    return [RunRequest(name=cell_name(kind, program_seed, profile, level),
                       source=program.source, profile=profile,
                       optimize=level)
            for kind, program in (("clean", clean), ("mutant", mutant))
            for profile, level in CELLS]


def check_batch(result, batch, program_seed, mutant):
    """The fuzz oracle's rule.  Clean: every cell exits and prints as
    ``none``-O1 does, with no trap.  Mutant: a cell detects a violation
    exactly when its policy's ``detects`` names the defect's class."""
    from repro.api import as_profile

    reference = batch[cell_name("clean", program_seed, *BASELINE_CELL)]
    for profile, level in CELLS:
        report = batch[cell_name("clean", program_seed, profile, level)]
        result.check(
            report.trap is None
            and (report.exit_code, report.output)
            == (reference.exit_code, reference.output),
            f"clean seed {program_seed} {profile}-O{level}: exit "
            f"{report.exit_code}, trap {report.trap_kind}")
        report = batch[cell_name("mutant", program_seed, profile, level)]
        declared = mutant.expected_class in as_profile(profile).policy.detects
        result.check(
            report.detected_violation == declared
            and report.trap_kind != "resource_limit",
            f"mutant seed {program_seed} ({mutant.defect}) {profile}-O"
            f"{level}: detected={report.detected_violation}, declared="
            f"{declared}, trap {report.trap_kind}")


def new_session(work_dir):
    """Set-up: a session on a fresh store, warmed by one batch of the
    block-0 program."""
    from repro.api import Session

    store = tempfile.mkdtemp(prefix="store-", dir=work_dir)
    session = Session(jobs=JOBS, store_dir=store)
    session.run_many(batch_requests(*next(program_stream(0))))
    return session


def timed_batches(session, first_seed, seconds, result):
    """Seed batches until ``seconds`` of raw batch time have passed;
    ``latencies`` and ``busy`` are normalised."""
    costs = {}
    counts = Counts()
    latencies, reports, programs = [], [], []
    stream = program_stream(first_seed)
    clock = HostClock()
    raw = 0.0
    while raw < seconds:
        program_seed, clean, mutant = next(stream)
        requests = batch_requests(program_seed, clean, mutant)
        # Each batch forks fresh workers: start them from the same
        # collector state, not whatever garbage this process holds.
        gc.collect()
        start = time.perf_counter()
        batch = session.run_many(requests)
        elapsed = time.perf_counter() - start
        raw += elapsed
        latencies.append(clock.normalise(elapsed))
        check_batch(result, batch, program_seed, mutant)
        for profile, level in CELLS:
            report = batch[cell_name("clean", program_seed, profile, level)]
            costs[(program_seed, profile, level)] = report.stats.cost
        for report in batch:
            reports.append(report)
            counts.add_run(report.stats)
            counts.add_compile(report.check_opt_stats)
        programs.append((program_seed, clean, mutant))
    return {"latencies": latencies, "reports": reports,
            "programs": programs,
            "seeds": [program_seed for program_seed, _, _ in programs],
            "costs": costs, "counts": counts,
            "cells": len(reports), "busy": sum(latencies), "raw": raw,
            "slowness": clock.median_slowness()}


def run(seed, seconds, trace, work_dir):
    base = (seed + 1) * SEED_BLOCK
    result = Result("fresh-batch")
    setup_s, session = median_setup(lambda: new_session(work_dir),
                                    SETUP_REPEATS)
    if not trace:
        phase = timed_batches(session, base, seconds, result)
        result.note(f"{phase['cells']} cells in {len(phase['seeds'])} "
                    f"batches, {phase['raw']:.2f}s raw; host slowness "
                    f"{phase['slowness']:.3f}, {phase['busy']:.2f}s "
                    f"normalised")
        result.set("setup_s", setup_s, "s")
        own, child = rusage_peak_mb()
        result.set("peak_rss_mb", own + child, "MiB")
        result.note(f"peak RSS: {own:.0f} MiB own + {child:.0f} MiB "
                    f"largest child")
        result.set("cells_per_s", phase["cells"] / phase["busy"], "1/s")
        result.set("latency_p50_ms", median(phase["latencies"]) * 1e3, "ms")
        percentile, value = tail(phase["latencies"])
        result.set("latency_tail_ms", value * 1e3, "ms")
        result.note(f"latency is one program's batch "
                    f"({2 * len(CELLS)} cells); tail is p{percentile:.1f}")
        for metric, cell in E2E_RATIOS.items():
            result.set(metric, geomean_ratio(phase["costs"], cell,
                                             phase["seeds"]), "x")
        return result

    untraced = timed_batches(session, base, seconds / 2, result)
    path = trace_path(work_dir, "fresh")
    with TraceSink(path) as sink:
        # A fresh store, so the same programs still miss every cache.
        traced_session = new_session(work_dir)
        since = time.time()
        phase = timed_batches(traced_session, base, seconds / 2, result)
    spans = Trace.load(sink.paths(), since=since)
    report_layers(result, layers_of(phase, untraced, spans))
    return result


def layers_of(phase, untraced, spans):
    from repro.api import Toolchain, as_profile
    from repro.store.format import compute_key

    counts = phase["counts"]
    # Which opt level each traced task compiled at, via the store key
    # its store.get span carries.
    level_of_key = {}
    sample = []
    for program_seed, clean, mutant in phase["programs"]:
        for program in (clean, mutant):
            for profile, level in CELLS:
                key = compute_key(program.source, as_profile(profile), level)
                level_of_key[key[:12]] = level
                if program_seed == phase["seeds"][0]:
                    compiled = Toolchain(profile=profile,
                                         optimize=level).compile(
                                             program.source)
                    counts.add_module(compiled.module)
                    sample.append((profile, compiled))
    task_level = {}
    for span in spans.named("store.get"):
        root = spans.root_of(span)
        task_level[root["span"]] = level_of_key.get(span["attrs"]["key"])

    def level_of(span):
        return task_level.get(spans.root_of(span)["span"])

    cells = phase["cells"]
    layers = counts.values()
    for metric, total in spans.self_totals(level_of).items():
        layers[metric] = total * 1e3 / cells
    probe = probe_programs(sample)
    for name in ("store.pickle_ms", "store.unpickle_ms", "store.entry_bytes",
                 "vm.instantiate_ms"):
        layers[name] = probe[name]
    for metric, cell in O2_RATIOS.items():
        layers[metric] = geomean_ratio(phase["costs"], cell, phase["seeds"])
    tasks = spans.named("task.api_run")
    task_s = sum(span["dur"] for span in tasks)
    layers["harness.task_ms"] = share(task_s, len(tasks)) * 1e3
    layers["harness.batch_idle_ratio"] = 1 - share(task_s,
                                                   JOBS * phase["raw"])
    wall = sum(report.wallclock_seconds for report in phase["reports"])
    layers["vm.ns_per_instr"] = wall * 1e9 / max(
        counts.vm["vm.instructions"], 1)
    layers["api.session_cache_hit_ratio"] = share(
        sum(1 for report in phase["reports"]
            if (report.cache or {}).get("origin") != "compile"), cells)
    untraced_rate = untraced["cells"] / untraced["busy"]
    layers["obs.trace_overhead_pct"] = (
        untraced_rate / (cells / phase["busy"]) - 1) * 100
    layers["obs.orphan_spans"] = spans.orphans()
    layers["obs.coverage_ratio"] = spans.coverage(("task.api_run",))
    return layers
