"""Compiled engine vs reference interpreter under temporal checking.

Extends the engine-equivalence contract to the temporal subsystem: for
every temporal attack and a representative workload slice, both engines
must produce bit-identical ExecutionResults — including the temporal
trap's kind/detail/address and the new temporal_checks counter — under
``SoftBoundConfig(temporal=True)`` on both metadata schemes.
"""

import pytest

from repro.api import compile_source
from repro.softbound.config import TEMPORAL_HASH, TEMPORAL_SHADOW
from repro.workloads.temporal_attacks import TEMPORAL_ATTACKS
from repro.workloads.programs import WORKLOADS

#: Allocation-heavy slice: li churns the allocator, health frees nodes,
#: treeadd builds a large pointer structure, go is the array/loop case
#: the check optimizer rewrites hardest.
WORKLOAD_SLICE = ("go", "health", "li", "treeadd")


def result_signature(result):
    trap = None
    if result.trap is not None:
        trap = (
            type(result.trap).__name__,
            result.trap.kind,
            result.trap.detail,
            result.trap.address,
            result.trap.target_symbol,
            result.trap.source,
        )
    stats = result.stats
    return (
        result.exit_code,
        result.output,
        trap,
        stats.cost,
        stats.instructions,
        stats.memory_ops,
        stats.pointer_memory_ops,
        stats.checks,
        stats.temporal_checks,
        stats.metadata_loads,
        stats.metadata_stores,
        stats.calls,
        stats.peak_heap,
        stats.metadata_bytes,
    )


def assert_engines_agree(source, softbound):
    compiled = compile_source(source, softbound)
    reference = result_signature(compiled.run(engine="interp"))
    fast = result_signature(compiled.run(engine="compiled"))
    assert reference == fast


@pytest.mark.parametrize("name", list(TEMPORAL_ATTACKS))
def test_temporal_attacks_shadow(name):
    assert_engines_agree(TEMPORAL_ATTACKS[name].source, TEMPORAL_SHADOW)


@pytest.mark.parametrize("name", list(TEMPORAL_ATTACKS))
def test_temporal_attacks_hash(name):
    assert_engines_agree(TEMPORAL_ATTACKS[name].source, TEMPORAL_HASH)


@pytest.mark.parametrize("name", WORKLOAD_SLICE)
def test_workloads_temporal_shadow(name):
    assert_engines_agree(WORKLOADS[name].source, TEMPORAL_SHADOW)
