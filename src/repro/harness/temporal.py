"""Temporal-safety detection: the rows of the temporal detection table.

:func:`temporal_detection` gives one temporal attack's outcome triple
under (unprotected, spatial-only, spatial+temporal), the rows of
``python -m repro tables temporal``; :func:`policy_temporal_detection`
gives a registered policy's extension row.  The temporal overhead
sweep (``BENCH_temporal.json``) is a view over the evaluation sweep:
:func:`repro.harness.stats.temporal_overhead_report`.
"""

from ..api import run_source
from ..vm.errors import TrapKind
from ..workloads.temporal_attacks import TEMPORAL_ATTACKS


def temporal_detection(name):
    """``(exploited, spatial_outcome, temporal_detected)`` for one
    temporal attack.

    * ``exploited`` — the unprotected run leaked/hijacked (payload exit
      code) or, for double free, ran silently wrong.
    * ``spatial_outcome`` — what spatial-only Full checking observed:
      ``"missed"`` (ran to the same wrong result) or the trap kind it
      stumbled on *after* the temporal violation already happened
      (e.g. the function-pointer encoding check catching a hijack at
      dispatch time, not the use-after-free write that planted it).
    * ``temporal_detected`` — spatial+temporal trapped with a precise
      ``temporal_violation``.
    """
    attack = TEMPORAL_ATTACKS[name]
    plain = run_source(attack.source, name=name)
    spatial = run_source(attack.source, profile="spatial", name=name)
    temporal = run_source(attack.source, profile="temporal", name=name)
    if spatial.trap is None:
        spatial_outcome = "missed"
    else:
        spatial_outcome = spatial.trap.kind.value
    temporal_detected = (temporal.trap is not None
                         and temporal.trap.kind is TrapKind.TEMPORAL_VIOLATION)
    return (bool(plain.attack_succeeded), spatial_outcome, temporal_detected)


def policy_temporal_detection(profile_name):
    """``{attack_name: outcome}`` for one registered policy over the
    temporal attack suite — the measurement behind a policy's extension
    row in the temporal detection table
    (:meth:`repro.policy.base.CheckerPolicy.temporal_row`).

    Outcomes are the trap-kind wire value (``"temporal_violation"``,
    ``"spatial_violation"``, ...) or ``"missed"`` — extension checkers
    are often *best-effort* (a quarantine scheme loses entries to
    allocator reuse), and the row reports what actually happened rather
    than a claim.
    """
    out = {}
    for name, attack in TEMPORAL_ATTACKS.items():
        result = run_source(attack.source, profile=profile_name, name=name)
        out[name] = (result.trap.kind.value if result.trap is not None
                     else "missed")
    return out
