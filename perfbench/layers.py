"""The per-layer metric catalogue and the direct probes behind it.

Every traced run reports every metric below.  A layer a workload does
not exercise reads 0 there: corpus compiles only in set-up, so its
compile-stage times are 0; fresh-batch and corpus never touch ``serve``.

Unless stated otherwise a ``*_ms`` layer metric is self time per unit
of work in the traced timed phase (per cell, per seed batch task, or per
request); counts taken from ``CostStats`` and pass statistics are means
per cell or per compiled program.
"""

import os
import statistics
import time

from .common import share

#: (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("frontend.parse_ms", "ms", "lower"),
    ("frontend.typecheck_ms", "ms", "lower"),
    ("lower.lower_ms", "ms", "lower"),
    ("opt.optimize_ms", "ms", "lower"),
    ("opt.post_optimize_ms", "ms", "lower"),
    ("opt.post_optimize_o2_ms", "ms", "lower"),
    ("softbound.instrument_ms", "ms", "lower"),
    ("opt.removed_checks", "count", "higher"),
    ("opt.hoisted_checks", "count", "higher"),
    ("opt.widened_checks", "count", "higher"),
    ("softbound.static_checks", "count", "lower"),
    ("prove.obligations", "count", "higher"),
    ("prove.proved_checks", "count", "higher"),
    ("prove.discharge_ratio", "ratio", "higher"),
    ("prove.cost_ratio_spatial_o2", "x", "lower"),
    ("prove.cost_ratio_full_o2", "x", "lower"),
    ("vm.instantiate_ms", "ms", "lower"),
    ("vm.run_ms", "ms", "lower"),
    ("vm.ns_per_instr", "ns", "lower"),
    ("vm.instructions", "count", "lower"),
    ("vm.cost_units", "count", "lower"),
    ("vm.checks", "count", "lower"),
    ("vm.temporal_checks", "count", "lower"),
    ("vm.metadata_loads", "count", "lower"),
    ("vm.metadata_stores", "count", "lower"),
    ("store.put_ms", "ms", "lower"),
    ("store.get_ms", "ms", "lower"),
    ("store.entry_bytes", "bytes", "lower"),
    ("store.pickle_ms", "ms", "lower"),
    ("store.unpickle_ms", "ms", "lower"),
    ("api.session_cache_hit_ratio", "ratio", "higher"),
    ("harness.task_ms", "ms", "lower"),
    ("harness.task_untraced_ms", "ms", "lower"),
    ("harness.batch_idle_ratio", "ratio", "lower"),
    ("serve.client_ms", "ms", "lower"),
    ("serve.request_ms", "ms", "lower"),
    ("serve.frontend_ms", "ms", "lower"),
    ("serve.compile_ms", "ms", "lower"),
    ("serve.run_ms", "ms", "lower"),
    ("serve.untraced_ms", "ms", "lower"),
    ("serve.memory_hit_ratio", "ratio", "higher"),
    ("serve.shed_count", "count", "lower"),
    ("loadgen.late_ms", "ms", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("obs.orphan_spans", "count", "lower"),
    ("obs.coverage_ratio", "ratio", "higher"),
    ("error_ratio", "ratio", "lower"),
)

#: CostStats fields behind the vm.* counts.
VM_COUNTS = {"vm.instructions": "instructions", "vm.cost_units": "cost",
             "vm.checks": "checks", "vm.temporal_checks": "temporal_checks",
             "vm.metadata_loads": "metadata_loads",
             "vm.metadata_stores": "metadata_stores"}

CHECK_OPCODES = ("sb_check", "sb_temporal_check")


def report_layers(result, values):
    """Set every per-layer metric on ``result`` (0 where ``values`` has
    no entry), plus ``error_ratio`` from the run's own checks."""
    values = dict(values)
    values["error_ratio"] = share(result.failed, result.attempted)
    for name, unit, _ in PER_LAYER:
        result.set(name, values.get(name, 0.0), unit)


def _field(stats, name):
    if stats is None:
        return 0
    if isinstance(stats, dict):
        return stats.get(name) or 0
    return getattr(stats, name, 0) or 0


class Counts:
    """Running means of the cost-model counters (per cell) and the
    compile-time check counters (per compiled program)."""

    def __init__(self):
        self.cells = 0
        self.vm = dict.fromkeys(VM_COUNTS, 0)
        self.programs = 0
        self.removed = self.hoisted = self.widened = 0
        self.obligations = self.proved = 0
        self.static_programs = 0
        self.static_checks = 0

    def add_run(self, stats):
        self.cells += 1
        for metric, field in VM_COUNTS.items():
            self.vm[metric] += _field(stats, field)

    def add_compile(self, check_opt_stats):
        self.programs += 1
        stats = check_opt_stats
        self.removed += (_field(stats, "removed_checks")
                         + _field(stats, "removed_temporal_checks"))
        self.hoisted += _field(stats, "hoisted_checks")
        self.widened += _field(stats, "widened_checks")
        self.obligations += _field(stats, "prove_obligations")
        self.proved += (_field(stats, "proved_checks")
                        + _field(stats, "proved_temporal_checks"))

    def add_module(self, module):
        """Count the check instructions left in a compiled module."""
        self.static_programs += 1
        self.static_checks += sum(
            1 for function in module.functions.values()
            for instruction in function.instructions()
            if instruction.opcode in CHECK_OPCODES)

    def values(self):
        out = {metric: share(total, self.cells)
               for metric, total in self.vm.items()}
        out.update({
            "opt.removed_checks": share(self.removed, self.programs),
            "opt.hoisted_checks": share(self.hoisted, self.programs),
            "opt.widened_checks": share(self.widened, self.programs),
            "prove.obligations": share(self.obligations, self.programs),
            "prove.proved_checks": share(self.proved, self.programs),
            "prove.discharge_ratio": share(self.proved, self.obligations),
            "softbound.static_checks": share(self.static_checks,
                                             self.static_programs),
        })
        return out


def probe_programs(programs):
    """Direct timing of the public calls around a compiled program, on
    never-instantiated ``programs`` (a list of ``(profile name,
    CompiledProgram)``): the store's serialization (``dumps_program`` /
    ``loads_program``) and ``CompiledProgram.instantiate``.  Returns the
    median ms of each and the mean serialized size in bytes."""
    from repro.api import as_profile
    from repro.store.format import dumps_program, loads_program

    pickle_ms, unpickle_ms, sizes, instantiate_ms = [], [], [], []
    for profile_name, compiled in programs:
        start = time.perf_counter()
        blob = dumps_program(compiled)
        pickle_ms.append((time.perf_counter() - start) * 1e3)
        sizes.append(len(blob))
        start = time.perf_counter()
        loads_program(blob)
        unpickle_ms.append((time.perf_counter() - start) * 1e3)
        profile = as_profile(profile_name)
        start = time.perf_counter()
        compiled.instantiate(observers=profile.make_observers())
        instantiate_ms.append((time.perf_counter() - start) * 1e3)
    return {
        "store.pickle_ms": statistics.median(pickle_ms),
        "store.unpickle_ms": statistics.median(unpickle_ms),
        "store.entry_bytes": statistics.mean(sizes),
        "vm.instantiate_ms": statistics.median(instantiate_ms),
    }


def trace_path(work_dir, label):
    return os.path.join(work_dir, f"trace-{label}.jsonl")
