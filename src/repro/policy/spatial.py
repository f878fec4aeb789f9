"""The SoftBound spatial policies: the paper's Figure 2 matrix.

Four registered points — {Complete, Stores} × {ShadowSpace, HashTable}
— plus the unprotected ``none`` policy.  These are the reference
implementations of the :class:`~repro.policy.base.CheckerPolicy`
protocol: transform-based, disjoint metadata, full optimizer
capabilities (their checks widen).
"""

from ..softbound.config import (
    FULL_HASH,
    FULL_SHADOW,
    STORE_HASH,
    STORE_SHADOW,
)
from .base import CheckerPolicy
from .instrumentation import SpatialPlan
from .registry import register_policy


class NonePolicy(CheckerPolicy):
    """Uninstrumented build: the overhead baseline every table divides
    by."""

    name = "none"
    description = "uninstrumented build, no checking"
    family = "none"
    config = None
    detects = frozenset()
    # provable (vacuously): no checks exist, so -O2 is a no-op rather
    # than an error — keeps O-level sweeps uniform across policies.
    provable = True


class SpatialPolicy(CheckerPolicy):
    """SoftBound proper: per-pointer (base, bound) in a disjoint
    facility, checked at every dereference."""

    name = "spatial"
    description = "SoftBound full spatial checking, shadow space"
    family = "softbound"
    config = FULL_SHADOW
    meta_arity = 2
    widenable = True
    # provable audit: sb_check traps iff ptr < base or ptr+size > bound,
    # which is exactly the interval contract the prove solver models,
    # and the (base, bound) companions are immutable per allocation.
    # Holds for every subclass (hash/store-only change *where* metadata
    # lives and *which* accesses are checked, not the trap condition).
    provable = True
    check_cost_key = "sb.check"
    detects = frozenset({"stack_overflow", "heap_overflow",
                         "subobject_overflow"})

    def instrumentation_plan(self, config=None):
        return SpatialPlan(config or self.config)


class SpatialHashPolicy(SpatialPolicy):
    name = "spatial-hash"
    description = "SoftBound full spatial checking, hash table"
    config = FULL_HASH


class StoreOnlyPolicy(SpatialPolicy):
    name = "spatial-store-only"
    description = ("metadata fully propagated, only stores checked "
                   "(shadow space)")
    config = STORE_SHADOW


class StoreOnlyHashPolicy(SpatialPolicy):
    name = "store-only-hash"
    description = ("metadata fully propagated, only stores checked "
                   "(hash table)")
    config = STORE_HASH


NONE = register_policy(NonePolicy)
SPATIAL = register_policy(SpatialPolicy)
SPATIAL_HASH = register_policy(SpatialHashPolicy)
STORE_ONLY = register_policy(StoreOnlyPolicy)
STORE_ONLY_HASH = register_policy(StoreOnlyHashPolicy)
