"""The paper's comparison baselines as registered policies.

Two styles, both first-class under the :class:`CheckerPolicy` protocol:

* **Transform-based** (MSCC, the fat-pointer variants): instrumented
  through the same IR transform as SoftBound but with their own
  metadata facility, cost keys and optimizer capabilities.  The
  fat-pointer policies keep metadata *inline* (program stores can reach
  it), so they forfeit the widen capability and the transform's
  block-local metadata-availability cache — expressed here as
  ``disjoint_metadata = False`` on their plan, not as a variant-name
  check in the transform.
* **Observer-based** (Valgrind, Mudflap, Jones-Kelly): per-run access
  observers attached to the VM; nothing is compiled differently, so
  their profiles all share one compiled program per source.
"""

from ..baselines import JonesKellyChecker, MudflapChecker, ValgrindChecker
from ..baselines.fatptr import NAIVE_FATPTR_CONFIG, WILD_FATPTR_CONFIG
from ..baselines.mscc import MSCC_CONFIG
from .base import CheckerPolicy
from .instrumentation import SpatialPlan
from .registry import register_policy


class _InlineMetadataPlan(SpatialPlan):
    """Plan for inline-metadata facilities: program stores can write the
    metadata, so the transform must re-read the table at every pointer
    load (no block-local availability caching)."""

    disjoint_metadata = False


class MsccPolicy(CheckerPolicy):
    name = "mscc"
    description = ("MSCC baseline (linked shadow metadata, no sub-object "
                   "bounds)")
    family = "baseline"
    config = MSCC_CONFIG
    meta_arity = 2
    widenable = False
    # provable audit: NOT provable — MSCC omits sub-object bounds, so
    # its trap condition is coarser than the interval contract the
    # prove solver models (a proof against (base, bound) would delete
    # checks MSCC evaluates differently).
    provable = False
    check_cost_key = "mscc.check"
    detects = frozenset({"stack_overflow", "heap_overflow"})

    def instrumentation_plan(self, config=None):
        return SpatialPlan(config or self.config)

    def make_facility(self, config=None):
        from ..baselines.mscc import MsccMetadata

        return MsccMetadata()


class FatptrNaivePolicy(CheckerPolicy):
    name = "fatptr-naive"
    description = ("SafeC-style inline fat pointers (clobberable "
                   "metadata)")
    family = "baseline"
    config = NAIVE_FATPTR_CONFIG
    meta_arity = 2
    widenable = False
    # provable audit: NOT provable — inline metadata is clobberable by
    # program stores, so the companion (base, bound) the analyzer
    # reasons about is not guaranteed to be the one the check reads.
    # (Inherited by fatptr-wild.)
    provable = False
    check_cost_key = "fatptr.check"
    detects = frozenset({"stack_overflow", "heap_overflow"})

    def instrumentation_plan(self, config=None):
        return _InlineMetadataPlan(config or self.config)

    def make_facility(self, config=None):
        from ..baselines.fatptr import make_fatptr_facility

        return make_fatptr_facility((config or self.config).variant)


class FatptrWildPolicy(FatptrNaivePolicy):
    name = "fatptr-wild"
    description = "CCured-style WILD fat pointers (tag bits)"
    config = WILD_FATPTR_CONFIG


class ValgrindPolicy(CheckerPolicy):
    name = "valgrind"
    description = "Valgrind-style heap addressability observer"
    family = "baseline"
    config = None
    # provable audit (all three observer policies): NOT provable — the
    # checking happens in a per-run VM observer, not in sb_check
    # instructions, so there is nothing the prove pass could soundly
    # delete; -O2 must be refused rather than silently mean -O1.
    observer_factory = ValgrindChecker
    #: Heap addressability also catches freed-block accesses until the
    #: allocator reuses the range (measured by the conformance suite).
    detects = frozenset({"heap_overflow", "use_after_free"})


class MudflapPolicy(CheckerPolicy):
    name = "mudflap"
    description = "Mudflap-style object-table observer"
    family = "baseline"
    config = None
    observer_factory = MudflapChecker
    detects = frozenset({"stack_overflow", "heap_overflow",
                         "use_after_free", "dangling_stack"})


class JonesKellyPolicy(CheckerPolicy):
    name = "jones-kelly"
    description = "Jones-Kelly object-table observer (splay tree)"
    family = "baseline"
    config = None
    observer_factory = JonesKellyChecker
    detects = frozenset({"stack_overflow", "heap_overflow",
                         "use_after_free", "dangling_stack"})


MSCC = register_policy(MsccPolicy)
FATPTR_NAIVE = register_policy(FatptrNaivePolicy)
FATPTR_WILD = register_policy(FatptrWildPolicy)
VALGRIND = register_policy(ValgrindPolicy)
MUDFLAP = register_policy(MudflapPolicy)
JONES_KELLY = register_policy(JonesKellyPolicy)
