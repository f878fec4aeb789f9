"""``repro.serve`` — safety-as-a-service: the long-lived daemon.

The paper's compatibility case study ran SoftBound under network
daemons; this package turns the reproduction itself into one.
``python -m repro serve`` starts an HTTP front-end
(:mod:`~repro.serve.server`) that accepts compile/check/run requests
(JSON in, :meth:`~repro.api.reports.RunReport.to_json`-shaped JSON out)
and executes them (:mod:`~repro.serve.workers`) on the persistent,
crash-isolated workers of :mod:`repro.harness.pool` under per-request
QoS budgets
(:mod:`~repro.serve.qos`).  :mod:`~repro.serve.loadgen` builds the
seeded request mix that the pipeline benchmark's ``serve-warm`` workload
drives the daemon with.

See ``docs/SERVE.md`` for the wire API, the status/degradation matrix
and the ops runbook.
"""

from .qos import AdmissionError, QosPolicy

__all__ = ["AdmissionError", "QosPolicy"]
