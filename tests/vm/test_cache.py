"""Unit and property tests for the set-associative cache simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import compile_source
from repro.softbound.config import MetadataScheme, SoftBoundConfig
from repro.vm.cache import (
    CORE2_L1D,
    CacheConfig,
    CacheHierarchy,
    CacheObserver,
    CacheSim,
)


class TestCacheConfig:
    def test_core2_l1_geometry(self):
        assert CORE2_L1D.n_sets == 64
        assert CORE2_L1D.size_bytes == 32 * 1024

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=24 * 1024, assoc=8, line_bytes=64)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, assoc=8, line_bytes=64)


class TestCacheSim:
    def test_first_access_misses_second_hits(self):
        cache = CacheSim()
        assert cache.access(0x1000, 8) != []
        assert cache.access(0x1000, 8) == []
        counters = cache.counters("prog")
        assert counters.accesses == 2
        assert counters.misses == 1
        assert counters.hits == 1

    def test_same_line_different_offset_hits(self):
        cache = CacheSim()
        cache.access(0x1000, 4)
        assert cache.access(0x1020, 4) == []  # same 64B line

    def test_access_straddling_line_boundary_touches_two_lines(self):
        cache = CacheSim()
        missed = cache.access(0x103C, 8)  # crosses 0x1040
        assert len(missed) == 2

    def test_24_byte_entry_can_straddle(self):
        cache = CacheSim()
        # A 24-byte hash entry at line offset 48 straddles two lines.
        assert len(cache.access(0x1000 + 48, 24)) == 2
        # Aligned at offset 0 it fits in one.
        cache2 = CacheSim()
        assert len(cache2.access(0x2000, 24)) == 1

    def test_lru_eviction(self):
        # Direct-mapped-ish: 1-way, 2 sets, 64B lines -> 128B cache.
        cache = CacheSim(CacheConfig(size_bytes=128, assoc=1, line_bytes=64))
        cache.access(0x0, 8)     # set 0
        cache.access(0x80, 8)    # set 0 again -> evicts line 0
        assert cache.access(0x0, 8) != []  # line 0 was evicted

    def test_lru_keeps_recently_used(self):
        cache = CacheSim(CacheConfig(size_bytes=256, assoc=2, line_bytes=64))
        cache.access(0x0, 8)      # set 0, line A
        cache.access(0x100, 8)    # set 0, line B
        cache.access(0x0, 8)      # touch A again (B becomes LRU)
        cache.access(0x200, 8)    # set 0, line C -> evicts B
        assert cache.access(0x0, 8) == []      # A still resident
        assert cache.access(0x100, 8) != []    # B was evicted

    def test_working_set_within_capacity_all_hits_on_second_pass(self):
        cache = CacheSim()  # 32KB
        lines = [0x1000 + i * 64 for i in range(256)]  # 16KB working set
        for addr in lines:
            cache.access(addr, 8)
        before = cache.counters("prog").misses
        for addr in lines:
            cache.access(addr, 8)
        assert cache.counters("prog").misses == before

    def test_streams_are_counted_separately(self):
        cache = CacheSim()
        cache.access(0x1000, 8, "prog")
        cache.access(0x1000, 8, "meta")  # hits the line prog brought in
        assert cache.counters("prog").misses == 1
        assert cache.counters("meta").misses == 0
        assert cache.counters("meta").accesses == 1

    def test_overall_miss_rate_combines_streams(self):
        cache = CacheSim()
        cache.access(0x1000, 8, "prog")
        cache.access(0x9000, 8, "meta")
        assert cache.miss_rate() == 1.0

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_property_hits_never_exceed_accesses(self, addrs):
        cache = CacheSim(CacheConfig(size_bytes=1024, assoc=2, line_bytes=64))
        for addr in addrs:
            cache.access(addr, 8)
        counters = cache.counters("prog")
        assert 0 <= counters.misses <= counters.accesses
        assert 0.0 <= counters.miss_rate <= 1.0

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_property_capacity_respected(self, addrs):
        config = CacheConfig(size_bytes=1024, assoc=2, line_bytes=64)
        cache = CacheSim(config)
        for addr in addrs:
            cache.access(addr, 8)
        for cache_set in cache._sets:
            assert len(cache_set) <= config.assoc

    @given(st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1,
                    max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_property_replaying_a_trace_is_deterministic(self, addrs):
        a, b = CacheSim(), CacheSim()
        for addr in addrs:
            a.access(addr, 8)
            b.access(addr, 8)
        assert a.counters("prog").misses == b.counters("prog").misses


class TestCacheHierarchy:
    def test_l2_sees_only_l1_misses(self):
        hierarchy = CacheHierarchy()
        hierarchy.access(0x1000, 8)
        hierarchy.access(0x1000, 8)  # L1 hit -> L2 untouched
        report = hierarchy.report()
        assert report.l1_prog.accesses == 2
        assert report.l1_prog.misses == 1
        assert report.l2_prog.accesses == 1

    def test_l2_retains_l1_evictions(self):
        small_l1 = CacheConfig(size_bytes=128, assoc=1, line_bytes=64)
        hierarchy = CacheHierarchy(small_l1, CacheConfig(
            size_bytes=64 * 1024, assoc=16, line_bytes=64, name="L2"))
        hierarchy.access(0x0, 8)
        hierarchy.access(0x80, 8)   # evicts 0x0 from L1
        hierarchy.access(0x0, 8)    # L1 miss, L2 hit
        report = hierarchy.report()
        assert report.l1_prog.misses == 3
        assert report.l2_prog.misses == 2
        assert report.l2_prog.hits == 1

    def test_mismatched_line_sizes_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy(CORE2_L1D, CacheConfig(
                size_bytes=4 * 1024 * 1024, assoc=16, line_bytes=128))


POINTER_CHASE = """
typedef struct Node { struct Node *next; long pad[3]; } Node;
int main() {
    Node *head = 0;
    for (int i = 0; i < 64; i++) {
        Node *n = (Node*)malloc(sizeof(Node));
        n->next = head;
        head = n;
    }
    long count = 0;
    for (int pass = 0; pass < 20; pass++) {
        for (Node *p = head; p; p = p->next) count++;
    }
    return (int)(count == 64 * 20);
}
"""


class TestCacheObserver:
    def test_uninstrumented_run_counts_program_accesses(self):
        observer = CacheObserver()
        result = compile_source(POINTER_CHASE).run(observers=[observer])
        assert result.exit_code == 1
        report = observer.report()
        assert report.l1_prog.accesses > 100
        assert report.l1_meta.accesses == 0

    @pytest.mark.parametrize("scheme", [MetadataScheme.HASH_TABLE,
                                        MetadataScheme.SHADOW_SPACE])
    def test_instrumented_run_counts_metadata_accesses(self, scheme):
        observer = CacheObserver()
        config = SoftBoundConfig(scheme=scheme)
        result = compile_source(POINTER_CHASE, config).run(observers=[observer])
        assert result.exit_code == 1
        report = observer.report()
        assert report.l1_meta.accesses > 0

    def test_hash_table_touches_more_metadata_lines_than_shadow(self):
        """The Section 6.3 memory-pressure claim in miniature: on a
        pointer-chasing workload the hash table's shared aliasing array
        plus 24-byte straddling entries miss more than the shadow
        space's locality-preserving mirror."""
        rates = {}
        for scheme in (MetadataScheme.HASH_TABLE, MetadataScheme.SHADOW_SPACE):
            observer = CacheObserver()
            compile_source(POINTER_CHASE, SoftBoundConfig(scheme=scheme)).run(
                observers=[observer])
            rates[scheme] = observer.report().l1_meta.miss_rate
        assert rates[MetadataScheme.HASH_TABLE] >= rates[MetadataScheme.SHADOW_SPACE]
