"""``repro.fuzz`` — the self-sustaining differential fuzzing campaign.

The scenario-diversity flywheel: generate random pointer-heavy programs
(clean, or with one injected defect of known violation class — see
:mod:`repro.workloads.randprog`), run each through every registered
checker policy × both VM engines × both optimization levels, and treat
any cross-configuration disagreement as a bug to be minimized and
archived.

The pieces:

* :mod:`repro.harness.pool` (shared with the serve daemon) — the
  robustness layer: crash-isolated subprocess workers with per-task
  wallclock timeouts, worker-death detection and retry-once-with-
  backoff, so a hung or crashing generated program becomes a
  ``timeout``/``crash`` verdict instead of wedging the campaign.
* :mod:`repro.fuzz.oracle` — the differential oracle: plans the config
  matrix for a program, executes it (in workers under instruction
  budgets), and judges transparency, detection ground truth (both
  directions against ``CheckerPolicy.detects``), engine/opt-level
  agreement and serial==parallel batch equality.
* :mod:`repro.fuzz.corpus` — the content-addressed corpus directory:
  judged-seed checkpoints (atomically rewritten, so a ``kill -9``'d
  campaign resumes gracefully) and minimized findings registered as
  bugbench-style cases with JSON metadata.
* :mod:`repro.fuzz.minimize` — statement-level delta debugging that
  shrinks every discrepancy to a minimal reproducer (every accepted
  step re-verified by the oracle; size monotonically non-increasing).
* :mod:`repro.fuzz.campaign` — the long-running driver behind
  ``python -m repro fuzz run`` with ``--time-budget``/``--seeds``/
  ``--resume`` and deterministic exit codes.

See ``docs/FUZZING.md`` for the campaign model, the verdict taxonomy
and how to triage a minimized case.
"""

from .campaign import Campaign, CampaignConfig
from .corpus import Corpus
from .minimize import MinimizeResult, minimize
from .oracle import ConfigMatrix, judge_program, plan_program

__all__ = [
    "Campaign",
    "CampaignConfig",
    "ConfigMatrix",
    "Corpus",
    "MinimizeResult",
    "judge_program",
    "minimize",
    "plan_program",
]
