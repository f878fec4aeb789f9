"""Optimization pipeline.

Mirrors the paper's compilation flow (Section 6.1): the full optimizer
runs *before* SoftBound (so instrumentation counts reflect optimized
code) and again *after* it (so redundant checks introduced by the
mechanical transformation are cleaned up).  The pre-instrumentation
pipeline runs at ``-O1`` and above; the post-instrumentation cleanup
runs at every level, ``-O0`` included, whenever the build is protected
and ``SoftBoundConfig.optimize_checks`` is on.

The post-instrumentation pipeline is loop-aware: after the dominance
scoped elimination of static duplicates (``checkelim``), ``checkwiden``
versions counted loops behind a widened preheader guard so the hot path
runs check-free (see each pass's module docstring for the safety
argument).  Pass order matters: copy propagation and CSE canonicalize
the operand webs the check passes key on; constant folding and DCE run
last to clean up what widening exposed.

Whether check widening applies is the checker policy's call: the post
pipeline queries the policy's ``widenable`` capability flag
(:mod:`repro.policy`) instead of matching variant names.  The built-in
declarations preserve the historical behaviour — check widening only
for the ``softbound`` variant proper; the baseline variants keep the
paper's original cleanup pipeline.
"""

from dataclasses import dataclass

from dataclasses import fields as _dataclass_fields

from ..ir.module import invalidate_compiled
from ..ir.verifier import verify_module
from ..obs.metrics import default_registry
from . import checkelim, checkwiden, constfold, copyprop, cse, dce, mem2reg


@dataclass
class PassStats:
    promoted_allocas: int = 0
    folded: int = 0
    removed_dead: int = 0
    removed_checks: int = 0
    removed_temporal_checks: int = 0
    propagated_copies: int = 0
    cse_replaced: int = 0
    # Loop-aware check optimizer (post-instrumentation only):
    deduped_meta_loads: int = 0
    widened_loops: int = 0
    widened_checks: int = 0
    # Solver-backed static elimination (-O2 only):
    proved_checks: int = 0
    proved_temporal_checks: int = 0
    prove_obligations: int = 0


def _publish(stats, phase):
    """Fold one pipeline run's counters into the shared obs registry
    (series ``repro_opt_<field>_total{phase=...}``) — the profiler's
    elimination-attribution numbers aggregate here across compiles."""
    registry = default_registry()
    for f in _dataclass_fields(stats):
        value = getattr(stats, f.name)
        if value:
            registry.counter("repro_opt_%s_total" % f.name,
                             {"phase": phase}).inc(value)


def _capabilities(config):
    """Whether this build may widen checks — the checker policy's
    ``widenable`` flag (queried through the policy registry instead of
    pattern-matching variant names), gated by the config's own
    ``loop_optimize`` ablation switch."""
    if config is None:
        # Uninstrumented builds carry no checks; the check passes are
        # no-ops but harmless (historical behaviour: they run).
        return True
    from ..policy import policy_for_config

    policy = policy_for_config(config)
    return policy.widenable and getattr(config, "loop_optimize", True)


def optimize_module(module, verify=True):
    """The pre-instrumentation pipeline:
    constfold → mem2reg → copyprop → cse → dce."""
    stats = PassStats()
    for func in module.functions.values():
        stats.folded += constfold.run(func, module)
        stats.promoted_allocas += mem2reg.run(func, module)
        stats.propagated_copies += copyprop.run(func, module)
        stats.cse_replaced += cse.run(func, module)
        stats.removed_dead += dce.run(func, module)
    invalidate_compiled(module)
    if verify:
        verify_module(module)
    _publish(stats, "initial")
    return stats


def optimize_after_instrumentation(module, verify=True, config=None,
                                   prove=None):
    """The post-SoftBound cleanup pipeline (the paper re-runs the full
    LLVM suite here, Section 6.1):
    copyprop → cse → checkelim → [prove] → checkwiden → constfold →
    dce.

    ``prove`` is a :class:`repro.prove.ProveConfig` (or None to skip):
    at ``-O2`` the solver-backed pass deletes checks it can prove
    non-trapping, *before* widening so fully-proven loops need no
    versioning, and before DCE so the orphaned metadata movs get
    swept.  Each deletion's
    :class:`~repro.prove.certificate.Certificate` is collected on
    ``module.prove_certificates`` (not in the stats — the stats fields
    feed metric counters)."""
    stats = PassStats()
    widenable = _capabilities(config)
    certificates = []
    for func in module.functions.values():
        stats.propagated_copies += copyprop.run(func, module)
        stats.cse_replaced += cse.run(func, module)
        removed, deduped, removed_temporal = checkelim.run(func, module)
        stats.removed_checks += removed
        stats.deduped_meta_loads += deduped
        stats.removed_temporal_checks += removed_temporal
        if prove is not None:
            from ..prove import passes as prove_passes

            proved = prove_passes.run(func, module, prove)
            stats.proved_checks += proved.proved_checks
            stats.proved_temporal_checks += proved.proved_temporal_checks
            stats.prove_obligations += proved.obligations
            certificates.extend(proved.certificates)
        if widenable:
            widened_loops, widened_checks = checkwiden.run(func, module)
            stats.widened_loops += widened_loops
            stats.widened_checks += widened_checks
        stats.folded += constfold.run(func, module)
        stats.removed_dead += dce.run(func, module)
    if prove is not None:
        module.prove_certificates = tuple(certificates)
    invalidate_compiled(module)
    if verify:
        verify_module(module)
    _publish(stats, "post")
    return stats
