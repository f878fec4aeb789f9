"""Unified observability: metrics, tracing and the check-site profiler.

Three small, independent layers share this package:

* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and histograms (with labels) that the store, session caches,
  optimizer pipelines, parallel harness and fuzz campaign publish into.
  Snapshots are plain dicts, so worker processes return them across
  pickling boundaries and the parent merges them back in.
* :mod:`repro.obs.trace` — a structured tracer: nestable spans with
  wallclock durations, emitted as JSON-lines.  Enabled by the
  ``REPRO_TRACE=path`` environment variable or ``--trace PATH``; when
  disabled, every call site pays one attribute lookup on a shared
  null object and nothing else.
* :mod:`repro.obs.profiler` — a per-site profiler for the SoftBound
  runtime instructions (``sb_check`` / ``sb_temporal_check`` /
  ``sb_meta_load``), keyed back to source lines through the
  ``obs_site`` stamps the transform leaves on every emitted check.
  Both VM engines count at identical program points; the compiled
  engine emits a check template's ``?profile`` counter line only when
  a profile is attached, so the disabled path generates no profiling
  code at all.

Whether observability output is *emitted* (the ``obs`` block on run
reports, worker snapshot merging) is controlled here: tracing on, the
``REPRO_METRICS`` environment variable, or :func:`enable_metrics`.
Metrics are always *collected* — the bumps are coarse-grained and
cheap — but reports stay byte-identical unless observability was
switched on.
"""

import os

from .metrics import MetricsRegistry, default_registry
from .trace import (
    disable_tracing,
    enable_tracing,
    tracer,
    tracing_enabled,
)

_metrics_forced = False


def enable_metrics():
    """Force metrics emission (the ``obs`` report block and worker
    snapshot merging) on for this process, without tracing."""
    global _metrics_forced
    _metrics_forced = True


def disable_metrics():
    global _metrics_forced
    _metrics_forced = False


def obs_enabled():
    """True when observability output should be emitted: tracing is
    active, ``REPRO_METRICS`` is set, or :func:`enable_metrics` ran."""
    return (_metrics_forced or tracing_enabled()
            or bool(os.environ.get("REPRO_METRICS")))


def obs_block():
    """The optional ``obs`` block for :class:`~repro.api.RunReport`:
    a metrics snapshot plus (when tracing) the trace summary."""
    block = {"metrics": default_registry().snapshot()}
    if tracing_enabled():
        block["trace"] = tracer().summary()
    return block


__all__ = [
    "MetricsRegistry",
    "default_registry",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "obs_block",
    "obs_enabled",
    "tracer",
    "tracing_enabled",
]
