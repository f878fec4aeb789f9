"""Structured run results: :class:`RunReport` and :class:`BatchReport`.

A :class:`RunReport` is the facade's answer to "what happened when this
program ran under this profile": outcome (exit code, output, trap kind),
dynamic cost statistics (the paper's cost-model counters), static pass
statistics, and host wallclock.  Reports are plain picklable dataclasses
— batch execution ships them across process boundaries — and
``to_json()`` emits the normalized row format every recorded
``BENCH_*.json`` uses, so :class:`BatchReport.to_json` produces a
``bench-v2`` document ``scripts/bench_diff.py`` consumes directly.
"""

import json
import math
from dataclasses import asdict, dataclass, field

from ..vm.errors import ATTACK_EXIT_CODE, TrapKind


def _stats_dict(stats):
    return None if stats is None else asdict(stats)


@dataclass
class RunReport:
    """Outcome of one program execution under one protection profile."""

    #: Caller-supplied run label (workload name, file path, ...).
    name: str
    #: Name of the :class:`~repro.api.profiles.ProtectionProfile` used.
    profile: str
    #: VM engine the run executed on ("compiled" or "interp").
    engine: str
    exit_code: int = 0
    output: str = ""
    #: The full :class:`~repro.vm.errors.Trap`, or None for clean runs.
    trap: object = None
    #: Dynamic :class:`~repro.vm.costs.CostStats` of the run.
    stats: object = None
    #: Pre-instrumentation optimizer PassStats (None if optimize=False).
    pass_stats: object = None
    #: Post-instrumentation cleanup PassStats (None when uninstrumented).
    check_opt_stats: object = None
    #: Host seconds spent inside ``machine.run()`` (excludes machine
    #: instantiation, matching the wall-clock benchmarking convention).
    wallclock_seconds: float = 0.0
    #: Compile-cache provenance and counters, filled by cache-aware
    #: entry points (:class:`~repro.api.session.Session`): ``origin``
    #: ("memory" | "store" | "compile") plus the in-process LRU and
    #: persistent-store hit/miss/corrupt/eviction counters.  ``None``
    #: for sessionless one-shot runs.
    cache: dict = None
    #: Observability block (metrics snapshot + trace summary), filled
    #: only when observability is enabled (``REPRO_TRACE`` / ``--trace``
    #: / ``REPRO_METRICS``); ``None`` — and absent from ``to_json`` —
    #: otherwise, so recorded bench goldens stay byte-identical.
    obs: dict = None

    # -- outcome classification (mirrors ExecutionResult) --------------

    @property
    def ok(self):
        return self.trap is None

    @property
    def trap_kind(self):
        """The trap kind's wire value ("spatial_violation", ...) or None."""
        return self.trap.kind.value if self.trap is not None else None

    @property
    def detected_violation(self):
        """True when a *checker* stopped the program (not a crash)."""
        return self.trap is not None and self.trap.kind in (
            TrapKind.SPATIAL_VIOLATION,
            TrapKind.TEMPORAL_VIOLATION,
            TrapKind.VARARG_VIOLATION,
            TrapKind.FUNCTION_POINTER_VIOLATION,
        )

    @property
    def attack_succeeded(self):
        """True when control flow was hijacked or the payload ran."""
        if self.trap is not None \
                and self.trap.kind == TrapKind.CONTROL_FLOW_HIJACK:
            return True
        return self.exit_code == ATTACK_EXIT_CODE

    @property
    def cost(self):
        """Dynamic cost units (the bench-v2 normalized ``value``)."""
        return self.stats.cost if self.stats is not None else 0

    def to_json(self):
        """The normalized row dict (bench-v2 ``workloads`` entry)."""
        trap = None
        if self.trap is not None:
            trap = {
                "kind": self.trap.kind.value,
                "detail": self.trap.detail,
                "address": self.trap.address,
                "source": self.trap.source,
            }
        row = {
            "name": self.name,
            "profile": self.profile,
            "engine": self.engine,
            "exit_code": self.exit_code,
            "ok": self.ok,
            "detected_violation": self.detected_violation,
            "trap": trap,
            "stats": _stats_dict(self.stats),
            "pass_stats": _stats_dict(self.pass_stats),
            "check_opt_stats": _stats_dict(self.check_opt_stats),
            "wallclock_seconds": round(self.wallclock_seconds, 6),
            "value": self.cost,
        }
        if self.cache is not None:
            row["cache"] = self.cache
        if self.obs is not None:
            row["obs"] = self.obs
        return row


@dataclass
class BatchReport:
    """Results of a batch (:meth:`repro.api.Session.run_many`), in
    submission order, as a ``bench-v2`` document."""

    benchmark: str = "session-batch"
    metric: str = "cost_units"
    config: str = "mixed"
    #: {run name: RunReport}, insertion-ordered.
    reports: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.reports.values())

    def __len__(self):
        return len(self.reports)

    def __getitem__(self, name):
        return self.reports[name]

    @property
    def geomean(self):
        values = [max(r.cost, 1) for r in self.reports.values()]
        if not values:
            return 0.0
        return math.exp(sum(map(math.log, values)) / len(values))

    def to_json(self):
        return {
            "schema": "bench-v2",
            "benchmark": self.benchmark,
            "metric": self.metric,
            "config": self.config,
            "workloads": {name: report.to_json()
                          for name, report in self.reports.items()},
            "geomean": round(self.geomean, 3),
        }

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def report_from_result(result, name, profile, engine, compiled=None,
                       wallclock_seconds=0.0):
    """Wrap a VM :class:`~repro.vm.errors.ExecutionResult` into a
    :class:`RunReport`, lifting the compile-time statistics off the
    :class:`~repro.api.toolchain.CompiledProgram` when provided."""
    return RunReport(
        name=name,
        profile=profile,
        engine=engine,
        exit_code=result.exit_code,
        output=result.output,
        trap=result.trap,
        stats=result.stats,
        pass_stats=getattr(compiled, "pass_stats", None),
        check_opt_stats=getattr(compiled, "check_opt_stats", None),
        wallclock_seconds=wallclock_seconds,
    )
