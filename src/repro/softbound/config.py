"""SoftBound configuration.

Two orthogonal axes, exactly the paper's evaluation matrix (Figure 2):

* :class:`CheckMode` — FULL checks every dereference; STORE_ONLY fully
  propagates metadata but checks only memory writes (Section 1/6.3: "In
  this mode, SoftBound fully propagates all metadata, but inserts bounds
  checks only for memory writes").
* :class:`MetadataScheme` — HASH_TABLE (tagged entries, ≈9 instructions
  per access) or SHADOW_SPACE (tag-less, ≈5 instructions; Section 5.1).
"""

import enum
from dataclasses import dataclass


class CheckMode(enum.Enum):
    FULL = "full"
    STORE_ONLY = "store_only"


class MetadataScheme(enum.Enum):
    HASH_TABLE = "hash_table"
    SHADOW_SPACE = "shadow_space"


@dataclass(frozen=True)
class SoftBoundConfig:
    """How to instrument and run a program under SoftBound."""

    mode: CheckMode = CheckMode.FULL
    scheme: MetadataScheme = MetadataScheme.SHADOW_SPACE
    #: Shrink pointer bounds to the field when creating pointers to
    #: struct fields (Section 3.1).  On by default; the ablation bench
    #: turns it off to demonstrate sub-object overflows escaping.
    shrink_bounds: bool = True
    #: Infer pointer-free memcpy from the call-site argument type and
    #: skip metadata copying when safe (Section 5.2's heuristic).
    infer_memcpy: bool = True
    #: Run the post-instrumentation optimization pipeline (redundant
    #: check elimination etc., Section 6.1).  It runs at every
    #: optimization level, ``-O0`` included.
    optimize_checks: bool = True
    #: Run the loop-aware check optimizer inside that pipeline (guarded
    #: check widening, :mod:`repro.opt.checkwiden`).  Only the
    #: ``softbound`` variant honours it; the ablation benchmarks turn
    #: it off to isolate the loop pass's contribution.
    loop_optimize: bool = True
    #: Encode each function's pointer/non-pointer argument signature and
    #: verify it dynamically at indirect calls.  This is the "ultimate
    #: solution" the paper sketches for casts between incompatible
    #: function-pointer types but leaves unimplemented in its prototype
    #: (Section 5.2, "Function pointers"); off by default to match the
    #: prototype, on in the extension tests.
    encode_fnptr_signature: bool = False
    #: Lock-and-key temporal checking (use-after-free, double free,
    #: dangling stack pointers): every allocation gets a unique key and
    #: a lock location, pointers carry (key, lock) alongside
    #: (base, bound), and a dereference additionally requires
    #: ``*lock == key`` (:mod:`repro.temporal`).  Off by default to
    #: match the paper's prototype, which defers dangling-pointer
    #: detection to a companion mechanism; only the ``softbound``
    #: variant supports it.
    temporal: bool = False
    #: Instrumentation variant: "softbound" (the paper's system) or
    #: "mscc" (the Xu et al. baseline of Section 6.5, modelled as the
    #: same pointer-based discipline with linked-shadow metadata costs
    #: and no sub-object bounds).
    variant: str = "softbound"

    @property
    def label(self):
        scheme = "ShadowSpace" if self.scheme is MetadataScheme.SHADOW_SPACE else "HashTable"
        mode = "Complete" if self.mode is CheckMode.FULL else "Stores"
        label = f"{scheme}-{mode}"
        if self.temporal:
            label += "-Temporal"
        return label


FULL_SHADOW = SoftBoundConfig(CheckMode.FULL, MetadataScheme.SHADOW_SPACE)
FULL_HASH = SoftBoundConfig(CheckMode.FULL, MetadataScheme.HASH_TABLE)
STORE_SHADOW = SoftBoundConfig(CheckMode.STORE_ONLY, MetadataScheme.SHADOW_SPACE)
STORE_HASH = SoftBoundConfig(CheckMode.STORE_ONLY, MetadataScheme.HASH_TABLE)

#: The four configurations of the paper's Figure 2, in its legend order.
FIGURE2_CONFIGS = (FULL_HASH, FULL_SHADOW, STORE_HASH, STORE_SHADOW)

#: Full spatial + lock-and-key temporal checking over the shadow space —
#: the complete-memory-safety configuration the temporal detection table
#: and ``BENCH_temporal.json`` measure.
TEMPORAL_SHADOW = SoftBoundConfig(CheckMode.FULL, MetadataScheme.SHADOW_SPACE,
                                  temporal=True)
TEMPORAL_HASH = SoftBoundConfig(CheckMode.FULL, MetadataScheme.HASH_TABLE,
                                temporal=True)
