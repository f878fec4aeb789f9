"""The lock-and-key temporal policies (CETS-style companion mechanism).

Widened metadata (arity 4: base, bound, key, lock), the temporal check
emitted after every spatial check, and the ``full`` configuration that
additionally turns on function-pointer signature encoding.  Temporal
checks dedupe under the lock-invalidation discipline (killed at calls)
but are never widened away — liveness is per-access.
"""

from ..softbound.config import TEMPORAL_HASH, TEMPORAL_SHADOW
from .base import CheckerPolicy
from .instrumentation import TemporalPlan
from .registry import register_policy

_SPATIAL_DETECTS = frozenset({"stack_overflow", "heap_overflow",
                              "subobject_overflow"})
_TEMPORAL_DETECTS = frozenset({"use_after_free", "double_free",
                               "dangling_stack"})


class TemporalPolicy(CheckerPolicy):
    """Spatial + lock-and-key temporal checking over the shadow space."""

    name = "temporal"
    description = "spatial + lock-and-key temporal checking, shadow space"
    family = "softbound"
    config = TEMPORAL_SHADOW
    meta_arity = 4
    widenable = True
    # provable audit: spatial checks as in SpatialPolicy; temporal
    # checks are only ever deleted under the immortal-lock rule
    # ((key, lock) == (GLOBAL_KEY, GLOBAL_LOCK), which LockSpace pins
    # forever).  Holds for temporal-hash and full too.
    provable = True
    check_cost_key = "sb.check"
    detects = _SPATIAL_DETECTS | _TEMPORAL_DETECTS

    def instrumentation_plan(self, config=None):
        return TemporalPlan(config or self.config)


class TemporalHashPolicy(TemporalPolicy):
    name = "temporal-hash"
    description = "spatial + lock-and-key temporal checking, hash table"
    config = TEMPORAL_HASH


def _full_config():
    # Deferred: repro.api.profiles also exports this constant; the
    # policy layer owns the definition now, the facade re-exports it.
    from ..softbound.config import CheckMode, MetadataScheme, SoftBoundConfig

    return SoftBoundConfig(CheckMode.FULL, MetadataScheme.SHADOW_SPACE,
                           encode_fnptr_signature=True, temporal=True)


#: Full spatial + temporal + the function-pointer signature extension:
#: every dynamic check the system implements, on at once.
FULL_PROTECTION = _full_config()


class FullPolicy(TemporalPolicy):
    name = "full"
    description = "everything on: spatial + temporal + fn-pointer signatures"
    config = FULL_PROTECTION


TEMPORAL = register_policy(TemporalPolicy)
TEMPORAL_HASH_POLICY = register_policy(TemporalHashPolicy)
FULL = register_policy(FullPolicy)
