"""Loop-aware check optimizer: behavioural transparency over the full
evaluation corpus.

The loop pass (guarded check widening) and the check cleanup around it
may change *how much* instrumentation executes — that is their purpose
— but must never change what the program *does*: exit code, output,
and the trap (kind, faulting address, target symbol, source, message)
must be bit-identical to the unoptimized reference build run on the
reference interpreter, on both engines.  This is the engine-equivalence
discipline extended across the optimizer: the unoptimized interpreter
run is the executable specification, and the optimized module must
match it behaviourally under the compiled engine and the interpreter
alike.
"""

from dataclasses import replace

import pytest

from repro.api import compile_source
from repro.softbound.config import TEMPORAL_SHADOW, SoftBoundConfig
from repro.vm.errors import TrapKind
from repro.workloads.attacks import all_attacks
from repro.workloads.bugbench import all_bugs
from repro.workloads.corpus import all_patterns
from repro.workloads.programs import WORKLOADS

FULL_SHADOW = SoftBoundConfig()

CORPUS_INPUTS = {"unchecked_index_from_input": b"16\n"}


def behaviour(result):
    trap = None
    if result.trap is not None:
        trap = (result.trap.kind, result.trap.detail, result.trap.address,
                result.trap.target_symbol, result.trap.source)
    return (result.exit_code, result.output, trap)


def assert_transparent(source, input_data=b"", config=FULL_SHADOW):
    """Returns the reference behaviour after checking both engines
    reproduce it on the optimized build."""
    reference = compile_source(source, replace(config, optimize_checks=False))
    spec = behaviour(reference.run(engine="interp", input_data=input_data))
    optimized = compile_source(source, config)
    interp = behaviour(optimized.run(engine="interp", input_data=input_data))
    compiled = behaviour(optimized.run(engine="compiled", input_data=input_data))
    assert interp == spec
    assert compiled == spec
    return spec


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workloads(name):
    assert_transparent(WORKLOADS[name].source)


@pytest.mark.parametrize("attack", all_attacks(), ids=lambda a: a.name)
def test_attacks(attack):
    assert_transparent(attack.source)


@pytest.mark.parametrize("bug", all_bugs(), ids=lambda b: b.name)
def test_bugbench(bug):
    assert_transparent(bug.source)


@pytest.mark.parametrize("pattern", all_patterns(), ids=lambda p: p.name)
def test_bug_corpus(pattern):
    assert_transparent(pattern.source,
                       input_data=CORPUS_INPUTS.get(pattern.name, b""))


#: Loops whose checks have invariant operands in the loop header — the
#: shapes a header check motion would target.  Each is pinned to what
#: its reference build does, so the trap contract stays covered: an
#: out-of-bounds header dereference traps on the first evaluation, at
#: the same address, and a zero-trip loop still evaluates its header
#: check once without trapping.
LOOP_SHAPES = {
    "header_deref": (FULL_SHADOW, 40, None, """
    int main(void) {
        int *p = (int *)malloc(sizeof(int));
        while (*p < 40) { *p = *p + 1; }
        return *p;
    }
    """),
    "header_trap": (FULL_SHADOW, None, TrapKind.SPATIAL_VIOLATION, """
    int main(void) {
        int *p = (int *)malloc(4 * sizeof(int));
        int *q = p + 9;
        while (*q < 5) { *q = *q + 1; }
        return 0;
    }
    """),
    "zero_trip": (FULL_SHADOW, 99, None, """
    int main(void) {
        int *p = (int *)malloc(sizeof(int));
        *p = 99;
        while (*p < 5) { *p = *p + 1; }
        return *p;
    }
    """),
    # `q` lives in memory (address taken), so reading `**qq` in the
    # loop needs an invariant metadata load for q's slot.
    "invariant_meta_load": (FULL_SHADOW, 0, None, """
    int sink;
    int main(void) {
        int *q = (int *)malloc(sizeof(int));
        int **qq = &q;
        int s = 0;
        for (int i = 0; i < 30; i++) { s = s + **qq; }
        sink = s;
        return s;
    }
    """),
    # A call-free loop whose condition dereferences an invariant
    # pointer: an invariant spatial and temporal check pair in the
    # header.
    "invariant_temporal_header": (TEMPORAL_SHADOW, 32, None, """
    int data[4];
    int main(void) {
        int *p = data;
        int total = 0;
        int i = 0;
        while (*p + i < 64) {        /* invariant header deref */
            i++;
            total += i;
        }
        return total & 63;
    }
    """),
}


@pytest.mark.parametrize("name", list(LOOP_SHAPES))
def test_loop_shapes(name, thresholds):
    config, exit_code, trap_kind, source = LOOP_SHAPES[name]
    for _ in thresholds():
        spec = assert_transparent(source, config=config)
        if trap_kind is None:
            assert spec[2] is None and spec[0] == exit_code
        else:
            assert spec[2] is not None and spec[2][0] is trap_kind
