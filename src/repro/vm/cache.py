"""Set-associative cache simulator.

The paper's Section 6.3 attributes part of the hash-table metadata
facility's extra overhead to memory pressure: "simulations of cache miss
rates (not shown) indicate the additional memory pressure is
contributing to the runtime overheads" on the pointer-chasing Olden
benchmarks (treeadd, mst, health).  This module makes those unshown
simulations reproducible: a classic set-associative LRU cache model fed
by the VM's program loads/stores *and* by the metadata facility's own
accesses, so the two facilities' cache footprints can be compared.

Address streams
---------------
Program accesses use their simulated virtual addresses directly.
Metadata accesses are mapped into facility-specific regions of the
simulated address space:

* The **hash table** is a fixed-size array of 24-byte entries at
  :data:`HASH_REGION_BASE`; every pointer slot in the program collides
  into this one array at ``(addr >> 3) mod nbuckets``, so pointer slots
  from *different* program regions (stack vs. heap) alias into the same
  small region, and each access touches a 24-byte entry that can
  straddle two cache lines.  Collision-chain entries live in a separate
  overflow arena, scattering further.
* The **shadow space** mirrors the program address space at 2x scale
  (16 metadata bytes per 8-byte slot) from :data:`SHADOW_REGION_BASE`;
  it therefore *inherits* the program's own locality.

This difference — a shared aliasing array vs. a locality-preserving
mirror — is exactly the memory-pressure asymmetry the paper alludes to,
and ``benchmarks/bench_ablation_cache.py`` measures it.
"""

from dataclasses import dataclass, field

from ..softbound.metadata import (  # noqa: F401  (re-exported for users)
    HASH_OVERFLOW_BASE,
    HASH_REGION_BASE,
    SHADOW_REGION_BASE,
)
from .machine import Observer


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int = 32 * 1024
    assoc: int = 8
    line_bytes: int = 64
    name: str = "L1D"

    @property
    def n_sets(self):
        return self.size_bytes // (self.assoc * self.line_bytes)

    def __post_init__(self):
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError("cache size must be a multiple of assoc * line size")
        if self.n_sets & (self.n_sets - 1):
            raise ValueError("number of sets must be a power of two")


# Core 2-like defaults: 32KB 8-way L1D, 4MB 16-way shared L2, 64B lines.
CORE2_L1D = CacheConfig(size_bytes=32 * 1024, assoc=8, line_bytes=64, name="L1D")
CORE2_L2 = CacheConfig(size_bytes=4 * 1024 * 1024, assoc=16, line_bytes=64, name="L2")


@dataclass
class StreamCounters:
    """Hit/miss counts for one access stream (program or metadata)."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self):
        return self.accesses - self.misses

    @property
    def miss_rate(self):
        return self.misses / self.accesses if self.accesses else 0.0


class CacheSim:
    """One level of set-associative cache with true-LRU replacement.

    ``access`` accepts any (address, size) pair and splits it across
    cache lines; it returns the number of lines that missed so a parent
    hierarchy can forward misses to the next level.
    """

    def __init__(self, config=CORE2_L1D):
        self.config = config
        self._set_mask = config.n_sets - 1
        self._line_shift = config.line_bytes.bit_length() - 1
        # Each set is a list of line tags ordered least- to most-recently
        # used.  Python list ops are O(assoc), which is tiny.
        self._sets = [[] for _ in range(config.n_sets)]
        self.streams = {}

    def counters(self, stream):
        try:
            return self.streams[stream]
        except KeyError:
            counters = self.streams[stream] = StreamCounters()
            return counters

    def _lines_of(self, addr, size):
        first = addr >> self._line_shift
        last = (addr + max(size, 1) - 1) >> self._line_shift
        return range(first, last + 1)

    def access(self, addr, size, stream="prog"):
        """Touch [addr, addr+size); returns the line numbers that missed."""
        counters = self.counters(stream)
        missed = []
        for line in self._lines_of(addr, size):
            counters.accesses += 1
            cache_set = self._sets[line & self._set_mask]
            try:
                cache_set.remove(line)
            except ValueError:
                counters.misses += 1
                missed.append(line)
                if len(cache_set) >= self.config.assoc:
                    cache_set.pop(0)
            cache_set.append(line)
        return missed

    def access_line(self, line, stream="prog"):
        """Touch one already-split line (used by upper levels on miss)."""
        counters = self.counters(stream)
        counters.accesses += 1
        cache_set = self._sets[line & self._set_mask]
        try:
            cache_set.remove(line)
        except ValueError:
            counters.misses += 1
            if len(cache_set) >= self.config.assoc:
                cache_set.pop(0)
            cache_set.append(line)
            return True
        cache_set.append(line)
        return False

    def miss_rate(self, stream=None):
        if stream is not None:
            return self.counters(stream).miss_rate
        accesses = sum(c.accesses for c in self.streams.values())
        misses = sum(c.misses for c in self.streams.values())
        return misses / accesses if accesses else 0.0


class CacheHierarchy:
    """A two-level hierarchy: L1 misses are replayed into L2.

    Line numbering is shared because both levels use the same line size;
    a different L2 line size would only need a renumbering step.
    """

    def __init__(self, l1_config=CORE2_L1D, l2_config=CORE2_L2):
        if l1_config.line_bytes != l2_config.line_bytes:
            raise ValueError("hierarchy assumes a shared line size")
        self.l1 = CacheSim(l1_config)
        self.l2 = CacheSim(l2_config)

    def access(self, addr, size, stream="prog"):
        for line in self.l1.access(addr, size, stream):
            self.l2.access_line(line, stream)

    def report(self):
        return CacheReport.from_hierarchy(self)


@dataclass
class CacheReport:
    """Summary of a run's cache behaviour, split by stream."""

    l1_prog: StreamCounters = field(default_factory=StreamCounters)
    l1_meta: StreamCounters = field(default_factory=StreamCounters)
    l2_prog: StreamCounters = field(default_factory=StreamCounters)
    l2_meta: StreamCounters = field(default_factory=StreamCounters)

    @classmethod
    def from_hierarchy(cls, hierarchy):
        return cls(
            l1_prog=hierarchy.l1.counters("prog"),
            l1_meta=hierarchy.l1.counters("meta"),
            l2_prog=hierarchy.l2.counters("prog"),
            l2_meta=hierarchy.l2.counters("meta"),
        )


class CacheObserver(Observer):
    """VM observer feeding program *and* metadata accesses into a cache.

    Program loads/stores arrive through the standard observer hooks.
    Metadata accesses are captured by installing a trace callback on the
    attached machine's metadata facility (when a SoftBound runtime is
    present) via :meth:`~repro.softbound.metadata.MetadataFacility.set_trace`;
    each facility reports the simulated addresses of the entries it
    touches under its own address model.
    """

    def __init__(self, hierarchy=None):
        self.hierarchy = hierarchy if hierarchy is not None else CacheHierarchy()

    def attach(self, machine):
        runtime = getattr(machine, "sb_runtime", None)
        if runtime is not None and hasattr(runtime.facility, "set_trace"):
            runtime.facility.set_trace(self._on_meta_access)

    def on_load(self, addr, size):
        self.hierarchy.access(addr, size, "prog")

    def on_store(self, addr, size):
        self.hierarchy.access(addr, size, "prog")

    def _on_meta_access(self, addr, size):
        self.hierarchy.access(addr, size, "meta")

    def report(self):
        return self.hierarchy.report()
