"""Differential property tests over randomly generated *safe* programs.

These are the reproduction's strongest compatibility evidence, the
executable form of the paper's "no false positives" claims (Sections
6.2 and 6.4): on memory-safe programs, SoftBound in every configuration
must be perfectly transparent — identical exit code, identical output,
zero violations — and the optimizer must never change behaviour.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import compile_source
from repro.softbound.config import (
    FULL_HASH,
    FULL_SHADOW,
    STORE_SHADOW,
    SoftBoundConfig,
)
from repro.workloads.randprog import generate

seeds = st.integers(min_value=0, max_value=100_000)

_SETTINGS = dict(max_examples=20, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _observe(source, softbound=None, optimize=True):
    result = compile_source(source, softbound, optimize=optimize).run()
    assert result.trap is None, f"unexpected trap: {result.trap}"
    return result.exit_code, tuple(result.output)


class TestGenerator:
    def test_deterministic(self):
        assert generate(1234).source == generate(1234).source

    def test_seeds_differ(self):
        sources = {generate(seed).source for seed in range(12)}
        assert len(sources) > 8

    def test_generated_source_compiles_and_runs_clean(self):
        for seed in range(5):
            exit_code, _ = _observe(generate(seed).source)
            assert 0 <= exit_code < 200


class TestNoFalsePositives:
    @given(seeds)
    @settings(**_SETTINGS)
    def test_full_shadow_is_transparent(self, seed):
        source = generate(seed).source
        assert _observe(source) == _observe(source, softbound=FULL_SHADOW)

    @given(seeds)
    @settings(**_SETTINGS)
    def test_full_hash_is_transparent(self, seed):
        source = generate(seed).source
        assert _observe(source) == _observe(source, softbound=FULL_HASH)

    @given(seeds)
    @settings(**_SETTINGS)
    def test_store_only_is_transparent(self, seed):
        source = generate(seed).source
        assert _observe(source) == _observe(source, softbound=STORE_SHADOW)

    @given(seeds)
    @settings(**_SETTINGS)
    def test_signature_encoding_is_transparent(self, seed):
        # The Section 5.2 extension must not reject well-typed programs.
        config = SoftBoundConfig(encode_fnptr_signature=True)
        source = generate(seed).source
        assert _observe(source) == _observe(source, softbound=config)


class TestOptimizerSoundness:
    @given(seeds)
    @settings(**_SETTINGS)
    def test_optimizer_preserves_semantics(self, seed):
        source = generate(seed).source
        assert _observe(source, optimize=True) == _observe(source, optimize=False)

    @given(seeds)
    @settings(**_SETTINGS)
    def test_post_instrumentation_cleanup_preserves_semantics(self, seed):
        source = generate(seed).source
        raw = SoftBoundConfig(optimize_checks=False)
        cleaned = SoftBoundConfig(optimize_checks=True)
        assert (_observe(source, softbound=raw)
                == _observe(source, softbound=cleaned))


class TestModeAgreement:
    @given(seeds)
    @settings(**_SETTINGS)
    def test_full_and_store_only_agree_on_safe_programs(self, seed):
        # The modes may differ only on *unsafe* loads; on safe programs
        # they are observationally identical.
        source = generate(seed).source
        assert (_observe(source, softbound=FULL_SHADOW)
                == _observe(source, softbound=STORE_SHADOW))

    @given(seeds)
    @settings(**_SETTINGS)
    def test_metadata_schemes_agree(self, seed):
        # Hash table vs shadow space differ in cost only, never in
        # outcome.
        source = generate(seed).source
        assert (_observe(source, softbound=FULL_SHADOW)
                == _observe(source, softbound=FULL_HASH))

    @given(seeds)
    @settings(**_SETTINGS)
    def test_full_checking_never_cheaper_than_store_only(self, seed):
        source = generate(seed).source
        full = compile_source(source, FULL_SHADOW).run()
        store = compile_source(source, STORE_SHADOW).run()
        assert full.stats.cost >= store.stats.cost
        assert full.stats.checks >= store.stats.checks
