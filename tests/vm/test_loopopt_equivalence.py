"""Loop-aware check optimizer: behavioural transparency over the full
evaluation corpus.

The loop passes (LICM + guarded check widening) may change *how much*
instrumentation executes — that is their purpose — but must never
change what the program *does*: exit code, output, and the trap
(kind, faulting address, target symbol, source, message) must be
bit-identical to the unoptimized reference build run on the reference
interpreter, on both engines.  This is the engine-equivalence
discipline extended across the optimizer: the unoptimized interpreter
run is the executable specification, and the optimized module must
match it behaviourally under the compiled engine and the interpreter
alike.
"""

from dataclasses import replace

import pytest

from repro.api import compile_source
from repro.softbound.config import SoftBoundConfig
from repro.workloads.attacks import all_attacks
from repro.workloads.bugbench import all_bugs
from repro.workloads.corpus import all_patterns
from repro.workloads.programs import WORKLOADS

FULL_SHADOW = SoftBoundConfig()
RAW = replace(FULL_SHADOW, optimize_checks=False)

CORPUS_INPUTS = {"unchecked_index_from_input": b"16\n"}


def behaviour(result):
    trap = None
    if result.trap is not None:
        trap = (result.trap.kind, result.trap.detail, result.trap.address,
                result.trap.target_symbol, result.trap.source)
    return (result.exit_code, result.output, trap)


def assert_transparent(source, input_data=b""):
    reference = compile_source(source, RAW)
    spec = behaviour(reference.run(engine="interp", input_data=input_data))
    optimized = compile_source(source, FULL_SHADOW)
    interp = behaviour(optimized.run(engine="interp", input_data=input_data))
    compiled = behaviour(optimized.run(engine="compiled", input_data=input_data))
    assert interp == spec
    assert compiled == spec


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
