"""Tests for dominance-based (cross-block) redundant-check elimination."""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import compile_source
from repro.softbound.config import FULL_SHADOW
from repro.workloads.randprog import generate

RAW = replace(FULL_SHADOW, optimize_checks=False)


def dynamic_checks(source, config):
    result = compile_source(source, config).run()
    assert result.trap is None
    return result.exit_code, result.stats.checks


class TestCrossBlockElimination:
    def test_check_before_branch_covers_both_arms(self):
        """p[0] is checked before the branch; the re-checks of p[0] in
        both arms are dominated and removed."""
        source = """
        int main(void) {
            int *p = (int *)malloc(4 * sizeof(int));
            p[0] = 1;
            if (p[0] > 0) { p[0] = 2; } else { p[0] = 3; }
            return p[0];
        }
        """
        exit_raw, raw = dynamic_checks(source, RAW)
        exit_opt, cleaned = dynamic_checks(source, FULL_SHADOW)
        assert exit_raw == exit_opt == 2
        assert cleaned < raw

    def test_loop_invariant_recheck_removed(self):
        """A check of the same single-def address repeated in a loop
        body is covered by its first (dominating) occurrence."""
        source = """
        int main(void) {
            int *p = (int *)malloc(sizeof(int));
            *p = 0;
            for (int i = 0; i < 50; i++) { *p = *p + 1; }
            return *p;
        }
        """
        exit_raw, raw = dynamic_checks(source, RAW)
        exit_opt, cleaned = dynamic_checks(source, FULL_SHADOW)
        assert exit_raw == exit_opt == 50
        # The loop executes 50 iterations; eliminating the in-loop
        # duplicates must remove many dynamic checks, not just one.
        assert cleaned <= raw - 50

    def test_varying_index_checks_are_kept(self):
        """a[i] computes a fresh address each iteration via the same
        static gep; its check must still fire for the out-of-bounds
        iteration."""
        source = """
        int main(void) {
            int a[8];
            for (int i = 0; i < 9; i++) a[i] = i;   /* i == 8 overflows */
            return 0;
        }
        """
        result = compile_source(source, FULL_SHADOW).run()
        assert result.trap is not None
        assert result.trap.kind.value == "spatial_violation"

    def test_sibling_branches_do_not_share_checks(self):
        """A check in the then-arm does not dominate the else-arm: both
        arms keep their own first check."""
        source = """
        int choose(int flag) {
            int *p = (int *)malloc(2 * sizeof(int));
            if (flag) { p[0] = 1; return p[0]; }
            p[1] = 2;
            return p[1];
        }
        int main(void) { return choose(0) + choose(1); }
        """
        exit_code, _ = dynamic_checks(source, FULL_SHADOW)
        assert exit_code == 3

    def test_detection_equivalence_on_buggy_program(self):
        """Elimination must never remove the *first* dynamic occurrence:
        a violating access still traps at the same address."""
        source = """
        int main(void) {
            int *p = (int *)malloc(4 * sizeof(int));
            p[0] = 1;
            p[0] = 2;      /* duplicate check removed */
            p[5] = 3;      /* still out of bounds */
            return 0;
        }
        """
        raw = compile_source(source, RAW).run()
        cleaned = compile_source(source, FULL_SHADOW).run()
        assert raw.trap is not None and cleaned.trap is not None
        assert raw.trap.address == cleaned.trap.address

    def test_static_check_count_shrinks(self):
        source = """
        int main(void) {
            int *p = (int *)malloc(sizeof(int));
            *p = 1;
            if (*p) { *p = 2; }
            while (*p < 9) { *p = *p + 3; }
            return *p;
        }
        """

        def static_checks(config):
            compiled = compile_source(source, config)
            return sum(1 for i in compiled.module.functions["_sb_main"].instructions()
                       if i.opcode == "sb_check")

        assert static_checks(FULL_SHADOW) < static_checks(RAW)

    @given(st.integers(min_value=0, max_value=60_000))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property_elimination_is_transparent(self, seed):
        source = generate(seed).source
        raw = compile_source(source, RAW).run()
        cleaned = compile_source(source, FULL_SHADOW).run()
        assert raw.trap is None and cleaned.trap is None
        assert raw.exit_code == cleaned.exit_code
        assert raw.output == cleaned.output
        assert cleaned.stats.checks <= raw.stats.checks
