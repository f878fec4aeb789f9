"""Metadata facility unit tests (paper Section 5.1)."""

import pytest

from repro.softbound.config import MetadataScheme
from repro.softbound.metadata import (
    HashTableMetadata,
    ShadowSpaceMetadata,
    make_facility,
)
from repro.vm.costs import CostStats


@pytest.fixture(params=["hash", "shadow"])
def facility(request):
    return HashTableMetadata() if request.param == "hash" else ShadowSpaceMetadata()


def test_store_then_load_roundtrip(facility):
    stats = CostStats()
    facility.store(0x1000, 0x2000, 0x3000, stats)
    assert facility.load(0x1000, stats) == (0x2000, 0x3000)


def test_absent_entry_is_null_bounds(facility):
    assert facility.load(0xDEAD0, CostStats()) == (0, 0)


def test_overwrite_updates_in_place(facility):
    stats = CostStats()
    facility.store(0x1000, 1, 2, stats)
    facility.store(0x1000, 3, 4, stats)
    assert facility.load(0x1000, stats) == (3, 4)


def test_adjacent_slots_independent(facility):
    stats = CostStats()
    facility.store(0x1000, 1, 2, stats)
    facility.store(0x1008, 3, 4, stats)
    assert facility.load(0x1000, stats) == (1, 2)
    assert facility.load(0x1008, stats) == (3, 4)


def test_clear_range_removes_entries(facility):
    stats = CostStats()
    for addr in range(0x1000, 0x1040, 8):
        facility.store(addr, addr, addr + 8, stats)
    facility.clear_range(0x1000, 0x20, stats)
    assert facility.load(0x1000, stats) == (0, 0)
    assert facility.load(0x1018, stats) == (0, 0)
    assert facility.load(0x1020, stats) != (0, 0)


def test_shadow_cheaper_than_hash_per_access():
    """Paper Section 5.1: shadow ≈ 5 instructions vs hash ≈ 9."""
    hash_stats, shadow_stats = CostStats(), CostStats()
    hash_fac, shadow_fac = HashTableMetadata(), ShadowSpaceMetadata()
    for addr in range(0x1000, 0x2000, 8):
        hash_fac.store(addr, 1, 2, hash_stats)
        hash_fac.load(addr, hash_stats)
        shadow_fac.store(addr, 1, 2, shadow_stats)
        shadow_fac.load(addr, shadow_stats)
    assert hash_stats.cost > shadow_stats.cost


def test_hash_collision_chain_costs_more():
    fac = HashTableMetadata(log2_buckets=2)  # tiny table forces collisions
    stats = CostStats()
    addrs = [0x1000 + i * 8 * 4 for i in range(8)]  # same bucket mod 4
    for addr in addrs:
        fac.store(addr, addr, addr + 8, stats)
    baseline = CostStats()
    fac.load(addrs[0], baseline)
    deep = CostStats()
    fac.load(addrs[-1], deep)
    assert deep.cost > baseline.cost
    # Correctness survives collisions.
    for addr in addrs:
        assert fac.load(addr, CostStats()) == (addr, addr + 8)


def test_hash_entry_bytes_larger_than_shadow():
    """Tag field makes hash entries 24 bytes vs shadow's 16."""
    assert HashTableMetadata.ENTRY_BYTES > ShadowSpaceMetadata.ENTRY_BYTES


def test_metadata_bytes_tracks_peak(facility):
    stats = CostStats()
    for addr in range(0x1000, 0x1100, 8):
        facility.store(addr, 1, 2, stats)
    peak = facility.metadata_bytes()
    facility.clear_range(0x1000, 0x100, stats)
    assert facility.metadata_bytes() == peak  # peak is sticky
    assert facility.entry_count() == 0


def test_make_facility_dispatch():
    assert isinstance(make_facility(MetadataScheme.HASH_TABLE), HashTableMetadata)
    assert isinstance(make_facility(MetadataScheme.SHADOW_SPACE), ShadowSpaceMetadata)


# -- clear_range across hash chain collisions (regression: entries that
# -- share a bucket must be cleared selectively, by tag) ----------------


def test_hash_clear_range_removes_only_targeted_chain_entries():
    fac = HashTableMetadata(log2_buckets=2)  # 4 buckets; heavy collisions
    stats = CostStats()
    stride = 8 * 4  # same bucket (mod 4) every 4 pointer slots
    addrs = [0x1000 + i * stride for i in range(6)]
    for addr in addrs:
        fac.store(addr, addr, addr + 8, stats)
    # Clear a range covering only the first two colliding entries.
    fac.clear_range(addrs[0], stride + 8, stats)
    assert fac.load(addrs[0], CostStats()) == (0, 0)
    assert fac.load(addrs[1], CostStats()) == (0, 0)
    for addr in addrs[2:]:
        assert fac.load(addr, CostStats()) == (addr, addr + 8), hex(addr)
    assert fac.entry_count() == len(addrs) - 2


def test_hash_clear_range_interleaved_buckets():
    """A clear over a dense range touches several buckets, each holding
    entries both inside and outside the range."""
    fac = HashTableMetadata(log2_buckets=2)
    stats = CostStats()
    inside = [0x2000 + i * 8 for i in range(8)]    # keys 0x400..0x407
    outside = [0x4000 + i * 8 for i in range(8)]   # same buckets, higher tags
    for addr in inside + outside:
        fac.store(addr, addr, addr + 16, stats)
    fac.clear_range(0x2000, 8 * 8, stats)
    for addr in inside:
        assert fac.load(addr, CostStats()) == (0, 0)
    for addr in outside:
        assert fac.load(addr, CostStats()) == (addr, addr + 16)


# -- paged shadow space edges -------------------------------------------


def test_shadow_clear_range_spanning_pages():
    fac = ShadowSpaceMetadata()
    stats = CostStats()
    page_bytes = ShadowSpaceMetadata.PAGE_SLOTS * 8
    base = page_bytes  # start exactly on a page boundary
    addrs = [base - 16, base - 8, base, base + 8,
             base + page_bytes - 8, base + page_bytes]
    for addr in addrs:
        fac.store(addr, addr, addr + 8, stats)
    # Clear one full page plus the slot before and after it.
    fac.clear_range(base - 8, page_bytes + 16, stats)
    assert fac.load(base - 16, CostStats()) == (base - 16, base - 8)
    for addr in addrs[1:]:
        assert fac.load(addr, CostStats()) == (0, 0), hex(addr)
    assert fac.entry_count() == 1


def test_shadow_store_of_null_bounds_still_counts_as_entry():
    """Storing (0, 0) creates a live entry (it is distinct from an
    absent slot for accounting, exactly as the dict model behaved)."""
    fac = ShadowSpaceMetadata()
    stats = CostStats()
    fac.store(0x1000, 0, 0, stats)
    assert fac.entry_count() == 1
    assert fac.metadata_bytes() == ShadowSpaceMetadata.ENTRY_BYTES
    assert fac.load(0x1000, stats) == (0, 0)


# -- shadow-space load/store equivalence between engines -----------------


def test_shadow_metadata_equivalent_across_engines():
    from repro.api import compile_source
    from repro.softbound.config import SoftBoundConfig

    source = r'''
    struct node { struct node *next; int value; };
    int main(void) {
        struct node *head = 0;
        for (int i = 0; i < 32; i++) {
            struct node *n = (struct node *)malloc(sizeof(struct node));
            n->next = head;
            n->value = i;
            head = n;
        }
        int total = 0;
        struct node *it = head;
        while (it) { total += it->value; it = it->next; }
        while (head) { struct node *d = head; head = head->next; free(d); }
        return total % 256;
    }
    '''
    compiled = compile_source(source, SoftBoundConfig())
    results = {}
    for engine in ("interp", "compiled"):
        machine = compiled.instantiate(engine=engine)
        result = machine.run()
        facility = machine.sb_runtime.facility
        results[engine] = (
            result.exit_code,
            result.stats.metadata_loads,
            result.stats.metadata_stores,
            result.stats.cost,
            result.stats.checks,
            facility.entry_count(),
            facility.metadata_bytes(),
        )
    assert results["interp"] == results["compiled"]
    assert results["interp"][0] == (31 * 32 // 2) % 256
