"""Golden equivalence: the bare toolchain and the facade are one path.

A direct ``Toolchain(...).compile(...).run(...)`` — the one-call path
the removed driver shims took — must stay byte-identical to the
:class:`repro.api.Session` path for every registered profile, and the
rendered tables (which execute through the facade) must agree with
results recomputed through the bare toolchain.
"""

import pytest

from repro.api import PROFILES, Session, Toolchain, all_profiles, as_profile

CLEAN = r'''
int main(void) {
    int a[8];
    long total = 0;
    for (int i = 0; i < 8; i++) a[i] = i * 3;
    for (int i = 0; i < 8; i++) total += a[i];
    printf("total=%ld\n", total);
    return 0;
}
'''

OVERFLOW = r'''
int main(void) {
    char b[4];
    strcpy(b, "definitely too long");
    return 0;
}
'''


def _legacy(source, profile=None):
    profile = as_profile(profile)
    return Toolchain(profile=profile.config).compile(source).run(
        observers=profile.make_observers())


@pytest.mark.parametrize("profile", all_profiles(), ids=lambda p: p.name)
def test_shim_equals_session_on_clean_program(profile):
    legacy = _legacy(CLEAN, profile)
    facade = Session().run(CLEAN, profile=profile)
    assert facade.exit_code == legacy.exit_code
    assert facade.output == legacy.output
    assert str(facade.trap) == str(legacy.trap)
    assert facade.stats.cost == legacy.stats.cost
    assert facade.stats.checks == legacy.stats.checks
    assert facade.stats.metadata_loads == legacy.stats.metadata_loads


@pytest.mark.parametrize("profile", all_profiles(), ids=lambda p: p.name)
def test_shim_equals_session_on_overflow(profile):
    legacy = _legacy(OVERFLOW, profile)
    facade = Session().run(OVERFLOW, profile=profile)
    assert facade.exit_code == legacy.exit_code
    assert str(facade.trap) == str(legacy.trap)
    assert facade.detected_violation == legacy.detected_violation
    assert facade.stats.cost == legacy.stats.cost


class TestTablesRideTheFacade:
    def test_attack_detection_matches_legacy_recomputation(self):
        from repro.harness.tables import attack_detection
        from repro.softbound.config import FULL_SHADOW, STORE_SHADOW
        from repro.workloads.attacks import all_attacks

        attack = next(iter(all_attacks()))
        plain = _legacy(attack.source)
        full = _legacy(attack.source, FULL_SHADOW)
        store = _legacy(attack.source, STORE_SHADOW)
        assert attack_detection(attack.name) == (
            plain.attack_succeeded, full.detected_violation,
            store.detected_violation)

    def test_temporal_detection_matches_legacy_recomputation(self):
        from repro.harness.temporal import temporal_detection
        from repro.softbound.config import TEMPORAL_SHADOW
        from repro.vm.errors import TrapKind
        from repro.workloads.temporal_attacks import TEMPORAL_ATTACKS

        name = "uaf_read"
        attack = TEMPORAL_ATTACKS[name]
        plain = _legacy(attack.source)
        temporal = _legacy(attack.source, TEMPORAL_SHADOW)
        exploited, _, detected = temporal_detection(name)
        assert exploited == bool(plain.attack_succeeded)
        assert detected == (temporal.trap is not None
                            and temporal.trap.kind
                            is TrapKind.TEMPORAL_VIOLATION)

    def test_temporal_paper_block_is_policy_layer_invariant(self):
        """The lock-and-key rows of the temporal table are produced
        through the policy layer now; their content must still equal a
        recomputation through the bare toolchain for every attack, and any
        extension-policy rows must render strictly *below* the paper
        block (pre-existing output stays a byte-identical prefix)."""
        from repro.harness.tables import render_temporal, temporal_matrix
        from repro.softbound.config import TEMPORAL_SHADOW
        from repro.vm.errors import TrapKind
        from repro.workloads.temporal_attacks import TEMPORAL_ATTACKS

        text = render_temporal()
        paper_block = text.split("\n\nExtension policies")[0]
        for name in TEMPORAL_ATTACKS:
            assert any(line.startswith(name)
                       for line in paper_block.splitlines())
        for name, (_, _, detected) in temporal_matrix().items():
            legacy = _legacy(TEMPORAL_ATTACKS[name].source, TEMPORAL_SHADOW)
            assert detected == (legacy.trap is not None
                                and legacy.trap.kind
                                is TrapKind.TEMPORAL_VIOLATION)

    def test_capability_paper_rows_are_policy_layer_invariant(self):
        """The paper's six Table 1 rows still match the pinned cells
        with the policy layer underneath, and extension rows do not
        leak into the paper block."""
        from repro.baselines.capabilities import (
            PAPER_TABLE1,
            capability_matrix,
        )

        rows = capability_matrix(include_extensions=False)
        assert [r.scheme for r in rows] == list(PAPER_TABLE1)
        for row in rows:
            assert (row.no_source_change, row.complete_subobject,
                    row.layout_compatible, row.arbitrary_casts,
                    row.dynamic_linking) == PAPER_TABLE1[row.scheme]
        extended = capability_matrix()
        assert [r.scheme for r in extended[:len(rows)]] \
            == [r.scheme for r in rows]
        assert any(r.scheme == "RedZone" for r in extended[len(rows):])

    def test_rendered_table_consumes_facade_memos(self):
        """`python -m repro tables temporal` output is produced from the
        same memoized facade results the detection matrix exposes."""
        import io

        from repro.cli import main
        from repro.harness.tables import render_temporal, temporal_matrix

        out, err = io.StringIO(), io.StringIO()
        assert main(["tables", "temporal"], out, err) == 0
        assert out.getvalue().rstrip("\n") == render_temporal()
        for name, (_, _, detected) in temporal_matrix().items():
            detected_cell = "yes" if detected else "NO"
            assert any(name in line and detected_cell in line
                       for line in out.getvalue().splitlines())
