"""``repro.prove`` — solver-backed static check elimination.

The dynamic optimizer (:mod:`repro.opt`) dedupes and widens checks;
this subsystem goes one step further and *deletes* checks it can prove
will never trap, at the new optimization level ``-O2``:

1. :mod:`repro.prove.absint` — an intra-procedural value-range /
   abstract-interpretation engine over the IR.  Pointers are tracked as
   symbolic offsets from an allocation *region* (an ``alloca``
   instruction or a global symbol) so a pointer and its ``(base,
   bound)`` companions stay comparable; loop heads widen, counted loops
   get recurrence-bounded spans instead.
2. :mod:`repro.prove.vcgen` — turns every ``sb_check`` /
   ``sb_temporal_check`` reached by the analysis into a verification
   condition ("provably in-bounds" / "provably lock-live").
3. :mod:`repro.prove.solver` — a small built-in SMT-lite decision
   procedure over linear integer difference constraints, escalating to
   a bounded case-split (the counted-loop trip bound, capped by
   ``ProveConfig.case_split_limit``).  No external solver dependency.
4. :mod:`repro.prove.certificate` — every deletion records a
   :class:`~repro.prove.certificate.Certificate` that
   :func:`~repro.prove.certificate.replay_certificate` re-validates
   against the formal semantics (:mod:`repro.formal`): the certified
   worst-case accesses must evaluate to ``Outcome.OK`` in the model.

The pass itself lives in :mod:`repro.prove.passes` and is wired into
:func:`repro.opt.pipeline.optimize_after_instrumentation`; the
toolchain accepts ``optimize=2`` (or a :class:`ProveConfig`) and gates
the level on the policy's ``provable`` capability flag
(:mod:`repro.policy`).
"""

from dataclasses import dataclass

from ..api.profiles import UsageError


class ProveNotSupportedError(UsageError):
    """``-O2`` requested for a policy that does not declare the
    ``provable`` capability.  A typed usage error (CLI exit code 64):
    proving a check redundant requires the policy's metadata discipline
    to match the solver's model, and silently downgrading the level
    would misreport what ran."""


@dataclass(frozen=True)
class ProveConfig:
    """Tuning knobs for the ``-O2`` prove pass.

    Frozen so it can ride in store cache keys (its ``repr`` is part of
    the artifact identity) and in frozen run requests.
    """

    #: Counted-loop trip-count ceiling for the bounded case-split: a
    #: loop whose trip bound exceeds this keeps plain widening.
    case_split_limit: int = 4096
    #: Loop-header visits before widening kicks in (a little delay
    #: keeps small constant loops exact).
    widen_delay: int = 2
    #: Hard cap on fixpoint sweeps per function (a safety valve; the
    #: widened analysis converges long before this).
    max_rounds: int = 64
    #: Functions with more blocks than this are skipped (analysis cost
    #: is superlinear in pathological CFGs; skipping is always sound —
    #: the checks simply stay dynamic).
    max_blocks: int = 512


def opt_level(optimize):
    """Normalize every accepted ``optimize`` spelling to a level.

    ``False``/``None``/``0`` → 0, ``True``/``1`` → 1, ``2`` or a
    :class:`ProveConfig` → 2.  (``True == 1`` in Python, so the int
    spellings and the historical bools coincide.)
    """
    if isinstance(optimize, ProveConfig):
        return 2
    if optimize is None or optimize is False:
        return 0
    if optimize is True:
        return 1
    level = int(optimize)
    if level not in (0, 1, 2):
        raise UsageError(f"unknown optimization level {optimize!r}; "
                         f"expected 0, 1, 2 or a ProveConfig")
    return level


def prove_config_of(optimize):
    """The :class:`ProveConfig` for an ``optimize`` spelling — the
    instance itself, a default one for level 2, else ``None``."""
    if isinstance(optimize, ProveConfig):
        return optimize
    return ProveConfig() if opt_level(optimize) == 2 else None


from .certificate import Certificate, replay_certificate  # noqa: E402
from .passes import ProveResult, run  # noqa: E402

__all__ = [
    "Certificate",
    "ProveConfig",
    "ProveNotSupportedError",
    "ProveResult",
    "opt_level",
    "prove_config_of",
    "replay_certificate",
    "run",
]
