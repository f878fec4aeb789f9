"""Closure-compiled engine vs reference interpreter: bit-identical
``ExecutionResult`` over the full evaluation corpus.

This is the contract that lets the compiled engine be the default: for
every workload analogue, Wilander attack, BugBench program and
spatial-bug pattern — protected and unprotected — both engines must
produce the same exit code, output, trap (kind, address, target symbol,
source, message) and every cost-model counter.
"""

import pytest

from repro.api import compile_source
from repro.softbound.config import (
    CheckMode,
    MetadataScheme,
    SoftBoundConfig,
)
from repro.workloads.attacks import all_attacks
from repro.workloads.bugbench import all_bugs
from repro.workloads.corpus import all_patterns
from repro.workloads.programs import WORKLOADS

FULL_SHADOW = SoftBoundConfig()
FULL_HASH = SoftBoundConfig(scheme=MetadataScheme.HASH_TABLE)
STORE_SHADOW = SoftBoundConfig(mode=CheckMode.STORE_ONLY)

CORPUS_INPUTS = {"unchecked_index_from_input": b"16\n"}


def result_signature(result):
    trap = None
    if result.trap is not None:
        trap = (
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
        stats.metadata_loads,
        stats.metadata_stores,
        stats.calls,
        stats.peak_heap,
        stats.metadata_bytes,
    )


def assert_engines_agree(source, softbound=None, input_data=b""):
    compiled = compile_source(source, softbound)
    reference = result_signature(
        compiled.run(engine="interp", input_data=input_data))
    fast = result_signature(
        compiled.run(engine="compiled", input_data=input_data))
    assert reference == fast


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workloads_unprotected(name):
    workload = WORKLOADS[name]
    assert_engines_agree(workload.source)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workloads_full_shadow(name):
    workload = WORKLOADS[name]
    assert_engines_agree(workload.source, softbound=FULL_SHADOW)


@pytest.mark.parametrize("name", ["go", "health", "treeadd"])
def test_workloads_hash_table(name):
    assert_engines_agree(WORKLOADS[name].source, softbound=FULL_HASH)


@pytest.mark.parametrize("name", ["compress", "bisort", "li"])
def test_workloads_store_only(name):
    assert_engines_agree(WORKLOADS[name].source, softbound=STORE_SHADOW)


@pytest.mark.parametrize("attack", all_attacks(), ids=lambda a: a.name)
def test_attacks(attack):
    # Unprotected: the exploit (control-flow hijack / payload) must look
    # identical; protected: the SoftBound trap must be identical.
    assert_engines_agree(attack.source)
    assert_engines_agree(attack.source, softbound=FULL_SHADOW)


@pytest.mark.parametrize("bug", all_bugs(), ids=lambda b: b.name)
def test_bugbench(bug):
    assert_engines_agree(bug.source)
    assert_engines_agree(bug.source, softbound=FULL_SHADOW)
    assert_engines_agree(bug.source, softbound=STORE_SHADOW)


@pytest.mark.parametrize("pattern", all_patterns(), ids=lambda p: p.name)
def test_bug_corpus(pattern):
    input_data = CORPUS_INPUTS.get(pattern.name, b"")
    assert_engines_agree(pattern.source, input_data=input_data)
    assert_engines_agree(pattern.source, softbound=FULL_SHADOW,
                         input_data=input_data)


def test_return_address_tokens_identical_across_engines():
    """Call-site return-address tokens are observable program state (an
    overread can fold the saved-RA bytes into output), so they are
    pre-assigned in module layout order rather than dynamic first-call
    order — regression for a divergence where the compiled engine
    assigned them at template-build time."""
    source = r'''
    long leak(void) { long a[1]; a[0] = 7; return a[2]; }  /* reads the RA slot */
    int flag = 0;   /* global: the branch survives constant folding */
    int main(void) {
        /* Layout-first call site that never executes: lazy dynamic
           assignment would give the second site the first token, while
           compile-time assignment gives it the second. */
        if (flag) return (int)(leak() & 0xfff);
        return (int)(leak() & 0xfff) & 0xff;
    }
    '''
    assert_engines_agree(source)
