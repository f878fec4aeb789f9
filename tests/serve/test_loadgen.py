"""Load-mix construction — no daemon required."""

from repro.serve.loadgen import DEFAULT_SEED, build_mix


class TestBuildMix:
    def test_deterministic_for_a_seed(self):
        first = build_mix(seed=DEFAULT_SEED)
        second = build_mix(seed=DEFAULT_SEED)
        assert [item.name for item in first] == \
            [item.name for item in second]

    def test_seed_changes_order_not_membership(self):
        first = build_mix(seed=1)
        second = build_mix(seed=2)
        assert [i.name for i in first] != [i.name for i in second]
        assert sorted(i.name for i in first) == \
            sorted(i.name for i in second)

    def test_all_categories_present(self):
        categories = {item.category for item in build_mix()}
        assert {"server", "attack", "bugbench", "malformed"} <= categories

    def test_repeats_multiply_the_mix(self):
        base = build_mix(repeats=1)
        doubled = build_mix(repeats=2)
        assert len(doubled) == 2 * len(base)

    def test_sections_can_be_disabled(self):
        mix = build_mix(servers=False, attacks=0, bugs=0, malformed=True)
        assert {item.category for item in mix} == {"malformed"}

    def test_attack_items_expect_403(self):
        for item in build_mix(servers=False, bugs=0, malformed=False):
            assert item.expect_status == (403,)
            assert item.route == "/run"
