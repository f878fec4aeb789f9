"""Inline fat-pointer metadata baselines (paper Sections 2.2 and 3.4).

SafeC and CCured's WILD pointers keep base/bound *inline*, adjacent to
the pointer in program-accessible memory.  Section 3.4 dissects the
consequences — and motivates SoftBound's disjoint metadata — through two
facts these facilities make measurable:

* **Naive inline metadata is manufacturable.**  A store through a
  legally-bounded pointer that spans the pointer's own slot (the classic
  wild-cast overwrite) rewrites the pointer *and its adjacent base*
  together, so the attacker chooses the bounds and the dereference check
  waves the forged pointer through.  :class:`InlineFatPointerMetadata`
  with ``tagged=False`` models this: a non-pointer store overlapping a
  registered pointer slot replaces its entry with attacker-controlled
  (permissive) bounds.

* **WILD tag bits close the hole at a per-store price.**  CCured writes
  a tag on *every* store to a WILD object (one when a valid pointer is
  stored, zero otherwise) and checks it on every pointer load, so
  metadata clobbered by data stores reads back as "not a pointer" (NULL
  bounds).  ``tagged=True`` models this, charging the paper's tag-update
  cost on every program store and the tag check on every pointer load.

SoftBound's disjoint facilities need neither: program stores cannot
reach the metadata at all, which ``bench_ablation_disjoint.py`` verifies
against both variants here.
"""

from ..softbound.config import CheckMode, MetadataScheme, SoftBoundConfig
from ..softbound.metadata import MetadataFacility

_WORD_SHIFT = 3
_PERMISSIVE = (0, 1 << 63)

#: Fat pointers cannot express sub-object bounds (the base must point at
#: the start of an allocation, Section 3.4), so shrink_bounds is off.
NAIVE_FATPTR_CONFIG = SoftBoundConfig(
    mode=CheckMode.FULL,
    scheme=MetadataScheme.SHADOW_SPACE,  # ignored; variant picks facility
    shrink_bounds=False,
    variant="fatptr_naive",
)

WILD_FATPTR_CONFIG = SoftBoundConfig(
    mode=CheckMode.FULL,
    scheme=MetadataScheme.SHADOW_SPACE,
    shrink_bounds=False,
    variant="fatptr_wild",
)


class InlineFatPointerMetadata(MetadataFacility):
    """Metadata living inline with the data, hence reachable by stores.

    The mapping (pointer-slot address -> entry) is the same as the
    disjoint facilities'; the difference is the ``on_program_store``
    hook, which the machine invokes for every non-pointer store so the
    facility can model what data traffic does to in-band metadata.
    """

    ENTRY_BYTES = 24  # value + base + bound live in the object

    def __init__(self, tagged):
        super().__init__()
        self.tagged = tagged
        self.name = "fatptr_wild" if tagged else "fatptr_naive"
        self.table = {}  # slot key -> [base, bound, tag]
        self.peak_live = 0
        self.corrupted_slots = 0

    # -- the MetadataFacility interface ------------------------------------

    def load(self, addr, stats):
        stats.charge("fatptr.load")
        entry = self.table.get(addr >> _WORD_SHIFT)
        if entry is None:
            return (0, 0)
        if self.tagged:
            # Tag check on every pointer load: a cleared tag means the
            # slot was overwritten by data; its metadata is void.
            if not entry[2]:
                return (0, 0)
        return (entry[0], entry[1])

    def store(self, addr, base, bound, stats):
        stats.charge("fatptr.store")
        key = addr >> _WORD_SHIFT
        self.table[key] = [base, bound, 1]
        if len(self.table) > self.peak_live:
            self.peak_live = len(self.table)

    def clear_range(self, addr, size, stats):
        start = addr >> _WORD_SHIFT
        end = (addr + size + 7) >> _WORD_SHIFT
        for key in range(start, end):
            self.table.pop(key, None)
        stats.charge_units(max(end - start, 1))

    def metadata_bytes(self):
        return self.peak_live * self.ENTRY_BYTES

    def entry_count(self):
        return len(self.table)

    # -- the inline-metadata hazard ------------------------------------------

    def on_program_store(self, addr, size, stats):
        """A non-pointer store hit [addr, addr+size).

        Inline layout means the bytes of any pointer slot in that range
        — and of its adjacent base/bound words — belong to the object
        being written.  Tagged (WILD) entries survive safely: the store
        also cleared their tag.  Untagged entries are corrupted: the
        attacker's bytes are now the base, modelled as the most
        permissive (worst-case, and typical-exploit) outcome.
        """
        if self.tagged:
            # "All stores to a WILD object must update the metadata
            # bits" (Section 3.4) — charged whether or not a pointer
            # slot was hit.
            stats.charge("fatptr.wild.tag_update")
        start = addr >> _WORD_SHIFT
        end = (addr + max(size, 1) + 7) >> _WORD_SHIFT
        for key in range(start, end):
            entry = self.table.get(key)
            if entry is None:
                continue
            if self.tagged:
                entry[2] = 0
            else:
                entry[0], entry[1] = _PERMISSIVE
                self.corrupted_slots += 1


def make_fatptr_facility(variant):
    return InlineFatPointerMetadata(tagged=(variant == "fatptr_wild"))
