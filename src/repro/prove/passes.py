"""The ``-O2`` prove pass: analyze, discharge, delete, certify.

Runs per function after the dynamic check optimizations (dedup/elim)
and before widening — a check that is provably redundant should be
*deleted*, not versioned.  For each function:

1. :func:`repro.prove.absint.analyze` computes abstract environments.
2. :func:`repro.prove.vcgen.obligations` turns every reached check into
   a verification condition.
3. :func:`repro.prove.solver.solve` decides each one; a positive answer
   yields a :class:`~repro.prove.certificate.Certificate`.
4. Proved check instructions are removed from their blocks.  Their
   companion metadata movs become dead and fall to the later DCE pass.

An analysis that did not converge (or was skipped for size) proves
nothing — every check simply stays dynamic, which is always sound.
"""

from dataclasses import dataclass, field

from .absint import analyze
from .certificate import certificate_for
from .solver import solve
from .vcgen import obligations


@dataclass
class ProveResult:
    """One function's prove-pass outcome."""

    proved_checks: int = 0            # deleted sb_check instructions
    proved_temporal_checks: int = 0   # deleted sb_temporal_check instrs
    obligations: int = 0              # VCs generated (incl. undischarged)
    certificates: list = field(default_factory=list)


def run(func, module=None, config=None):
    """Prove and delete redundant checks in ``func``; returns a
    :class:`ProveResult` (empty when nothing could be proved)."""
    del module  # same signature as the other opt passes
    result = ProveResult()
    analysis = analyze(func, config)
    if not analysis.converged or not analysis.check_envs:
        return result
    vcs = obligations(analysis.check_envs)
    result.obligations = len(vcs)
    proved = {}  # id(instr) -> Certificate
    for obligation in vcs:
        proof = solve(obligation)
        if proof is None:
            continue
        proved[id(obligation.instr)] = certificate_for(obligation, proof)
    if not proved:
        return result
    for block in func.blocks:
        kept = []
        for instr in block.instructions:
            cert = proved.get(id(instr))
            if cert is None:
                kept.append(instr)
                continue
            result.certificates.append(cert)
            if cert.kind == "temporal":
                result.proved_temporal_checks += 1
            else:
                result.proved_checks += 1
        if len(kept) != len(block.instructions):
            block.instructions = kept
            block.invalidate_compiled()
    return result
