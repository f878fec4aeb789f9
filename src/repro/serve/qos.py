"""Quality-of-service enforcement for the serve daemon.

Three budgets protect the fleet from any single request:

* **Instruction budgets.**  Every request runs under a VM instruction
  limit (the cost model's existing resource limit): the default is the
  QoS policy's ``default_budget``; a request may ask for less or more
  via its ``budget`` field, but never past ``max_budget`` — asking for
  more is a usage error (HTTP 400), not a silent clamp.  A program that
  exhausts its budget traps with ``resource_limit`` and maps to the
  CLI's exit-5 family (HTTP 500), exactly like a one-shot run.
* **Wallclock deadlines.**  The instruction budget bounds work *inside*
  the VM; the deadline is the backstop for everything outside it (a
  wedged worker, a pathological compile).  A worker past its deadline
  is SIGKILLed and respawned — the :mod:`repro.harness.pool` kill
  discipline — and the request resolves 504 without touching any other
  in-flight request.
* **Bounded admission.**  Requests past the worker pool are queued; a
  queue at its bound sheds load with 503 (``AdmissionError``) instead
  of queueing unboundedly.  Shed requests are the cheapest possible
  failure: no compile, no worker, one counter bump.

The policy object is frozen so one instance can be shared across the
asyncio front-end and every drain thread without locking.
"""

from dataclasses import dataclass

from ..api.profiles import UsageError

#: Instruction budget a request gets when it does not ask (enough for
#: every bundled workload at full instrumentation, with margin).
DEFAULT_BUDGET = 50_000_000
#: Hard per-request ceiling; requests asking past it are rejected 400.
MAX_BUDGET = 200_000_000
#: Wallclock deadline per request (seconds), compile included.
DEFAULT_DEADLINE = 30.0


class AdmissionError(Exception):
    """The admission queue is at its bound; the request is shed (503)."""

    def __init__(self, depth, limit):
        super().__init__(f"admission queue full ({depth}/{limit})")
        self.depth = depth
        self.limit = limit


@dataclass(frozen=True)
class QosPolicy:
    """The per-request budgets one daemon enforces."""

    default_budget: int = DEFAULT_BUDGET
    max_budget: int = MAX_BUDGET
    deadline_seconds: float = DEFAULT_DEADLINE
    queue_limit: int = 16

    def resolve_budget(self, requested):
        """The instruction budget one request runs under.  ``None``
        means "the default"; explicit values must be positive and
        within ``max_budget``."""
        if requested is None:
            return self.default_budget
        if not isinstance(requested, int) or isinstance(requested, bool):
            raise UsageError(f"budget must be an integer, "
                             f"got {type(requested).__name__}")
        if requested <= 0:
            raise UsageError(f"budget must be positive, got {requested}")
        if requested > self.max_budget:
            raise UsageError(f"budget {requested} exceeds the per-request "
                             f"ceiling {self.max_budget}")
        return requested

    def admit(self, queue_depth):
        """Admission control: raises :class:`AdmissionError` when the
        queue is at its bound."""
        if queue_depth >= self.queue_limit:
            raise AdmissionError(queue_depth, self.queue_limit)
