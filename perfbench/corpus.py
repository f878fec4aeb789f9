"""``corpus``: the paper's 15 workloads x five compile cells, in process.

Set-up compiles every cell (``Toolchain.compile``); each timed pass
instantiates and runs every cell on the default engine, in an order
shuffled by the seed.  Run time dominates, so this workload measures
engine dispatch, per-site checks and metadata on both axes: host time
and the paper's cost model.  Cell times are normalised to the reference
host speed (:mod:`perfbench.calibrate`).
"""

import gc
import random
import time

from .calibrate import HostClock
from .common import (CELLS, E2E_RATIOS, O2_RATIOS, Result, TraceSink,
                     geomean_ratio, median, median_setup, rusage_peak_mb,
                     tail)
from .layers import Counts, probe_programs, report_layers, trace_path
from .reduce import Trace

SETUP_REPEATS = 3


def compile_corpus():
    """``{(program, profile, level): CompiledProgram}`` for every cell."""
    from repro.api import Toolchain
    from repro.workloads.programs import WORKLOADS

    programs = {}
    for name, workload in WORKLOADS.items():
        for profile, level in CELLS:
            toolchain = Toolchain(profile=profile, optimize=level)
            programs[(name, profile, level)] = toolchain.compile(
                workload.source, name=name)
    return programs


def check_cell(result, key, outcome, outputs):
    """Oracle: the exit code is the workload's ``expected_exit`` and the
    output equals the ``none`` cell's."""
    from repro.workloads.programs import WORKLOADS

    name = key[0]
    expected = WORKLOADS[name].expected_exit
    reference = outputs.setdefault(name, outcome.output) \
        if key[1:] == ("none", 1) else outputs.get(name)
    ok = (outcome.trap is None and outcome.exit_code == expected
          and (reference is None or outcome.output == reference))
    result.check(ok, f"{key}: exit {outcome.exit_code} (want {expected}), "
                     f"trap {outcome.trap}")


def run_pass(programs, rng, result, outputs, costs, counts, clock):
    """Instantiate and run every cell once; returns per-cell seconds
    normalised by ``clock`` (a :class:`HostClock`) and the raw seconds
    inside ``instantiate`` and ``Machine.run``."""
    from repro.api import as_profile
    from repro.obs.trace import tracer

    keys = sorted(programs)
    # The none cells go first so their outputs are the reference.
    baseline = [key for key in keys if key[1:] == ("none", 1)]
    rest = [key for key in keys if key[1:] != ("none", 1)]
    rng.shuffle(baseline)
    rng.shuffle(rest)
    cell_seconds = []
    instantiate_s = run_s = 0.0
    for key in baseline + rest:
        # Each cell starts from a clean heap, as a one-run process
        # would: the last cell's machine is freed, not left to the
        # collector's timing (the compiled corpus itself is frozen).
        gc.collect()
        profile = as_profile(key[1])
        cell = tracer().start_span("bench.cell", program=key[0],
                                   profile=key[1], level=key[2])
        start = time.perf_counter()
        with tracer().span("bench.instantiate"):
            machine = programs[key].instantiate(
                observers=profile.make_observers())
        middle = time.perf_counter()
        with tracer().span("bench.run"):
            outcome = machine.run()
        end = time.perf_counter()
        cell.finish()
        del machine
        cell_seconds.append(clock.normalise(end - start))
        instantiate_s += middle - start
        run_s += end - middle
        check_cell(result, key, outcome, outputs)
        costs[key] = outcome.stats.cost
        counts.add_run(outcome.stats)
    return cell_seconds, instantiate_s, run_s


def timed_passes(programs, seed, seconds, result):
    """Whole passes until the next one would end well past ``seconds``
    of normalised cell time, and at least two.  Counting normalised time
    keeps the number of passes, and so what the tail percentile means,
    the same however fast the host runs.  Returns the phase's
    measurements; ``cells`` and ``busy`` are normalised."""
    rng = random.Random(seed)
    outputs, costs = {}, {}
    counts = Counts()
    clock = HostClock()
    cells, instantiate_s, run_s = [], 0.0, 0.0
    while True:
        pass_cells, inst, run = run_pass(programs, rng, result, outputs,
                                         costs, counts, clock)
        cells.extend(pass_cells)
        instantiate_s += inst
        run_s += run
        busy = sum(cells)
        if (len(cells) >= 2 * len(programs)
                and busy + busy * len(programs) / len(cells) / 2 >= seconds):
            break
    return {"cells": cells, "busy": busy, "raw": instantiate_s + run_s,
            "slowness": clock.median_slowness(),
            "instantiate_s": instantiate_s, "run_s": run_s, "costs": costs,
            "counts": counts}


def run(seed, seconds, trace, work_dir):
    from repro.workloads.programs import WORKLOADS

    result = Result("corpus")
    setup_s, programs = median_setup(compile_corpus, SETUP_REPEATS)
    gc.collect()
    gc.freeze()
    if trace:
        probe = probe_programs([(key[1], compiled) for key, compiled
                                in sorted(programs.items())])
        untraced = timed_passes(programs, seed, seconds / 2, result)
        path = trace_path(work_dir, "corpus")
        with TraceSink(path) as sink:
            since = time.time()
            phase = timed_passes(programs, seed, seconds / 2, result)
        spans = Trace.load(sink.paths(), since=since)
    else:
        phase = timed_passes(programs, seed, seconds, result)
    names = list(WORKLOADS)
    costs = phase["costs"]
    cells = phase["cells"]
    result.note(f"{len(cells)} cells in {phase['raw']:.2f}s raw: run "
                f"{phase['run_s']:.2f}s, instantiate "
                f"{phase['instantiate_s']:.2f}s; host slowness "
                f"{phase['slowness']:.3f}, {phase['busy']:.2f}s normalised")
    if not trace:
        result.set("setup_s", setup_s, "s")
        own, child = rusage_peak_mb()
        result.set("peak_rss_mb", own + child, "MiB")
        result.note(f"peak RSS: {own:.0f} MiB own + {child:.0f} MiB "
                    f"largest child")
        result.set("cells_per_s", len(cells) / phase["busy"], "1/s")
        result.set("latency_p50_ms", median(cells) * 1e3, "ms")
        percentile, value = tail(cells)
        result.set("latency_tail_ms", value * 1e3, "ms")
        result.note(f"latency is one normalised cell (instantiate + "
                    f"run); tail is p{percentile:.1f}")
        for metric, cell in E2E_RATIOS.items():
            result.set(metric, geomean_ratio(costs, cell, names), "x")
        return result

    counts = phase["counts"]
    for compiled in programs.values():
        counts.add_compile(compiled.check_opt_stats)
        counts.add_module(compiled.module)
    layers = counts.values()
    layers.update({name: probe[name] for name in
                   ("store.pickle_ms", "store.unpickle_ms",
                    "store.entry_bytes")})
    for metric, cell in O2_RATIOS.items():
        layers[metric] = geomean_ratio(costs, cell, names)
    per_cell = 1e3 / len(cells)
    for metric, total in spans.self_totals().items():
        layers[metric] = total * per_cell
    layers["vm.ns_per_instr"] = phase["run_s"] * 1e9 / max(
        counts.vm["vm.instructions"], 1)
    untraced_rate = len(untraced["cells"]) / untraced["busy"]
    traced_rate = len(cells) / phase["busy"]
    layers["obs.trace_overhead_pct"] = (untraced_rate / traced_rate - 1) * 100
    layers["obs.orphan_spans"] = spans.orphans()
    layers["obs.coverage_ratio"] = spans.coverage(("bench.cell",))
    report_layers(result, layers)
    return result
