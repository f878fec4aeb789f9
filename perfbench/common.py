"""Shared pieces of the pipeline benchmark: statistics, memory, results
and the in-process trace sink.

Every workload module returns a :class:`Result`; ``run.py`` prints its
human summary and, as the last line, the JSON object the benchmark
contract asks for.
"""

import json
import math
import os
import resource
import statistics
import time

#: The five compile cells of the paper axis, as (profile, opt level).
#: ``none``-O1 is the baseline every cost ratio divides by.
CELLS = (("none", 1), ("spatial", 1), ("full", 1), ("spatial", 2),
         ("full", 2))
BASELINE_CELL = ("none", 1)

#: End-to-end cost ratios: name -> the cell divided by the baseline.
#: Measured on every workload (serve traffic runs at -O1 only).
E2E_RATIOS = {"cost_ratio_spatial": ("spatial", 1),
              "cost_ratio_full": ("full", 1)}
#: -O2 cost ratios (the prove layer's effect), reported per layer.
O2_RATIOS = {"prove.cost_ratio_spatial_o2": ("spatial", 2),
             "prove.cost_ratio_full_o2": ("full", 2)}

#: Span names that start a unit of work; every other parentless span
#: is an orphan (work nobody can attribute to a request or a task).
ROOT_SPANS = ("bench.cell", "bench.request", "task.api_run",
              "serve.request")


# -- statistics ---------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """``(percentile, value)``: the highest percentile that still has at
    least ten samples beyond it (the maximum when there are fewer than
    eleven samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0
    index = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def geomean_ratio(costs, cell, programs):
    """Geometric mean over ``programs`` of cost(cell) / cost(baseline);
    ``costs`` maps ``(program, profile, level)`` to cost-model units."""
    logs = [math.log(costs[(p,) + cell] / costs[(p,) + BASELINE_CELL])
            for p in programs]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def share(part, whole):
    return part / whole if whole else 0.0


# -- memory -------------------------------------------------------------------


def rusage_peak_mb():
    """``(own, largest child)`` peak RSS in MiB: ``RUSAGE_SELF`` and
    ``RUSAGE_CHILDREN`` (the largest waited-for child)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def vm_hwm_mb(pid):
    """``VmHWM`` (peak RSS) of a live process from ``/proc``, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


# -- timing -------------------------------------------------------------------


def timed(function, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - start, result


def median_setup(setup, repeats):
    """Run ``setup()`` ``repeats`` times; returns the median seconds,
    normalised to the reference host speed, and the last result (earlier
    results are released before the next repetition starts)."""
    from .calibrate import HostClock

    clock = HostClock()
    seconds = []
    result = None
    for _ in range(repeats):
        result = None
        elapsed, result = timed(setup)
        seconds.append(clock.normalise(elapsed))
    return median(seconds), result


# -- results ------------------------------------------------------------------


class Result:
    """What one benchmark run measured and checked."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.metrics = {}
        self.units = {}
        #: Human-readable context lines (sample counts, rates, tails).
        self.notes = []

    def check(self, ok, detail):
        """Count one checked output; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(detail)

    def set(self, name, value, unit):
        self.metrics[name] = float(value)
        self.units[name] = unit

    def note(self, text):
        self.notes.append(text)

    def to_json(self):
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": self.units[name]}
                        for name, value in self.metrics.items()},
        }

    def render(self):
        lines = [f"workload {self.workload}: {self.attempted} outputs "
                 f"checked, {self.failed} wrong"]
        lines.extend(f"  ! {failure}" for failure in self.failures)
        width = max((len(name) for name in self.metrics), default=0)
        for name, value in self.metrics.items():
            lines.append(f"  {name:<{width}}  {value:.6g} {self.units[name]}")
        lines.extend(f"  # {note}" for note in self.notes)
        return "\n".join(lines)


def emit(result):
    print(result.render())
    print(json.dumps(result.to_json(), sort_keys=True))


# -- in-process tracing -------------------------------------------------------


class TraceSink:
    """Turns the program's ``REPRO_TRACE`` tracer on for this process
    and for every pool worker it forks.

    A worker forked from a traced parent inherits the parent's tracer,
    pid stamp and span counter, so two workers would emit the same span
    ids.  An ``after_in_child`` fork hook therefore reopens the tracer in
    each child on a file of its own; :meth:`paths` lists them all.
    """

    _active = None

    def __init__(self, path):
        self.path = path

    def __enter__(self):
        from repro.obs.trace import enable_tracing

        if not getattr(TraceSink, "_hooked", False):
            os.register_at_fork(after_in_child=TraceSink._reopen_in_child)
            TraceSink._hooked = True
        TraceSink._active = self
        enable_tracing(self.path)
        return self

    def __exit__(self, *exc_info):
        from repro.obs.trace import disable_tracing

        TraceSink._active = None
        disable_tracing()
        return False

    @staticmethod
    def _reopen_in_child():
        sink = TraceSink._active
        if sink is not None:
            from repro.obs.trace import enable_tracing

            enable_tracing(f"{sink.path}.{os.getpid()}")

    def paths(self):
        directory, base = os.path.split(self.path)
        return sorted(os.path.join(directory, name)
                      for name in os.listdir(directory)
                      if name == base or name.startswith(base + "."))
