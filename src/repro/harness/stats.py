"""Measurement helpers used by tests and the benchmark harness.

Centralizes "run workload W under configuration C and report the paper's
metrics" so that Figure 1, Figure 2 and the Section 6.5 comparison all
share one measurement path.  Results are memoized per process because
the benchmark files ask for overlapping slices of the same sweep; the
one memo of the evaluation matrix (:data:`MEMO`) lives here.
"""

import functools
import inspect
from dataclasses import dataclass

from ..api import ProtectionProfile, run_source
from ..softbound.config import FIGURE2_CONFIGS
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
    cost: int
    instructions: int
    memory_ops: int
    pointer_memory_ops: int
    checks: int
    metadata_loads: int
    metadata_stores: int
    metadata_bytes: int

    @property
    def pointer_fraction(self):
        if self.memory_ops == 0:
            return 0.0
        return self.pointer_memory_ops / self.memory_ops


@memoized
def measure(workload_name, config=None, observer_factory=None):
    """Compile and run one workload under one configuration (memoized).

    ``config`` is a SoftBoundConfig or None; ``observer_factory`` builds a
    fresh baseline observer per run (observers carry per-run state).
    """
    wl = WORKLOADS[workload_name]
    profile = ProtectionProfile.from_config(config, observer_factory)
    result = run_source(wl.source, profile=profile, name=wl.name)
    stats = result.stats
    return WorkloadMeasurement(
        name=wl.name,
        suite=wl.suite,
        config_label=(config.label if config is not None else
                      observer_factory.__name__ if observer_factory
                      else "baseline"),
        exit_code=result.exit_code,
        trap=result.trap,
        cost=stats.cost,
        instructions=stats.instructions,
        memory_ops=stats.memory_ops,
        pointer_memory_ops=stats.pointer_memory_ops,
        checks=stats.checks,
        metadata_loads=stats.metadata_loads,
        metadata_stores=stats.metadata_stores,
        metadata_bytes=stats.metadata_bytes,
    )


def pointer_fractions():
    """Figure 1's series: {workload: fraction}, uninstrumented runs."""
    return {name: measure(name).pointer_fraction for name in WORKLOADS}


def overhead_matrix(configs=FIGURE2_CONFIGS, workload_names=None):
    """Figure 2's matrix: {config_label: {workload: overhead %}}.

    Also sanity-checks behavioural equivalence: instrumented runs must
    produce the same exit code as the baseline.
    """
    names = list(workload_names or WORKLOADS)
    matrix = {}
    for config in configs:
        row = {}
        for name in names:
            base = measure(name)
            inst = measure(name, config)
            if inst.trap is not None or inst.exit_code != base.exit_code:
                raise AssertionError(
                    f"{name} under {config.label}: behaviour diverged "
                    f"({inst.trap}, exit {inst.exit_code} vs {base.exit_code})")
            row[name] = overhead_percent(base.cost, inst.cost)
        matrix[config.label] = row
    return matrix


def average(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0
