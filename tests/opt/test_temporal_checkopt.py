"""The optimizer's temporal hooks: checkelim dedup.

Counts are asserted through the pipeline's PassStats and behaviour is
pinned by running the optimized build: a deduplicated temporal check
must still catch every stale access (the equivalence suites cover the
full corpora, and ``tests/vm/test_loopopt_equivalence.py`` an invariant
temporal loop header; here the shapes are targeted).
"""

from repro.api import compile_source
from repro.softbound.config import TEMPORAL_SHADOW
from repro.vm.errors import TrapKind

#: Straight-line repeated derefs of one pointer slot in a call-free
#: function body: dominated temporal checks are removable.
_REPEAT_DEREF = r'''
int body(int *p) {
    int total = 0;
    total += p[0];
    total += p[1];
    total += p[0];
    total += p[2];
    return total;
}
int data[4] = {1, 2, 3, 4};
int main(void) {
    return body(data);
}
'''

#: A loop with a call inside: lock state may change every iteration,
#: so nothing temporal may move or be deduplicated across iterations.
_LOOP_WITH_FREE = r'''
int main(void) {
    long **cells = (long **)malloc(8 * sizeof(long *));
    for (int i = 0; i < 8; i++)
        cells[i] = (long *)malloc(16);
    long total = 0;
    long *stale = cells[3];
    for (int i = 0; i < 8; i++) {
        total += *cells[3];      /* same slot every iteration... */
        if (i == 4)
            free(stale);         /* ...but iteration 4 kills it */
    }
    return (int)total;
}
'''


def _stats(source):
    compiled = compile_source(source, TEMPORAL_SHADOW)
    return compiled, compiled.check_opt_stats


#: Two loads of the same pointer slot (the parameter register, stable
#: across blocks) in a dominating and a dominated block, no calls or
#: pointer stores in the function: the second sb_meta_load dedups, and
#: the replacement must redefine *all four* widened companions — a
#: dropped key/lock would leave the following sb_temporal_check reading
#: an undefined register (compilation of a valid program failed the
#: verifier before this was fixed).
_CROSS_BLOCK_RELOAD = r'''
long data[4] = {10, 20, 30, 40};
long *cell = data;
int deref2(long **pp, int c) {
    long x = (*pp)[0];
    if (c)
        x += (*pp)[1];
    return (int)x;
}
int main(void) {
    return deref2(&cell, 1);
}
'''


def test_deduped_meta_load_carries_temporal_companions():
    compiled, stats = _stats(_CROSS_BLOCK_RELOAD)
    assert stats.deduped_meta_loads >= 1, stats  # the shape must dedup
    result = compiled.run()
    assert result.trap is None and result.exit_code == 30, result.trap


def test_checkelim_dedupes_dominated_temporal_checks():
    compiled, stats = _stats(_REPEAT_DEREF)
    assert stats.removed_temporal_checks >= 1, stats
    result = compiled.run()
    assert result.trap is None and result.exit_code == 7


def test_loop_with_free_keeps_per_iteration_temporal_checks():
    """The mid-loop free must still trap on iteration 5: temporal
    checks are never moved or deduplicated across calls."""
    compiled, stats = _stats(_LOOP_WITH_FREE)
    result = compiled.run()
    assert result.trap is not None
    assert result.trap.kind is TrapKind.TEMPORAL_VIOLATION


def test_optimized_equals_unoptimized_on_attacks():
    """The optimizer must not change which temporal traps fire."""
    from dataclasses import replace

    from repro.workloads.temporal_attacks import all_temporal_attacks

    unopt = replace(TEMPORAL_SHADOW, optimize_checks=False)
    for attack in all_temporal_attacks():
        optimized = compile_source(attack.source, TEMPORAL_SHADOW).run()
        reference = compile_source(attack.source, unopt).run()
        assert (optimized.trap is None) == (reference.trap is None), attack.name
        if optimized.trap is not None:
            assert optimized.trap.kind == reference.trap.kind, attack.name
            assert optimized.trap.address == reference.trap.address, attack.name
