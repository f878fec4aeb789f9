"""Workload integrity: every program compiles, runs deterministically,
and behaves identically under SoftBound (the §6.3/§6.4 preconditions)."""

import pytest

from repro.api import compile_source
from repro.softbound.config import FULL_SHADOW, STORE_SHADOW
from repro.workloads.attacks import all_attacks
from repro.workloads.bugbench import all_bugs
from repro.workloads.programs import FIGURE1_ORDER, WORKLOADS, all_workloads
from repro.workloads.servers import all_servers


def test_fifteen_workloads_registered():
    assert len(WORKLOADS) == 15
    assert list(WORKLOADS) == FIGURE1_ORDER


def test_eighteen_attacks_registered():
    attacks = all_attacks()
    assert len(attacks) == 18
    groups = {}
    for attack in attacks:
        groups.setdefault(attack.group, []).append(attack)
    assert len(groups["stack_direct"]) == 6
    assert len(groups["heap_direct"]) == 2
    assert len(groups["stack_ptr"]) == 6
    assert len(groups["heap_ptr"]) == 4


def test_four_bugbench_programs():
    assert len(all_bugs()) == 4
    assert {b.name for b in all_bugs()} == {"go", "compress", "polymorph", "gzip"}


@pytest.mark.parametrize("name", list(WORKLOADS), ids=list(WORKLOADS))
def test_workload_checksum_stable(name):
    wl = WORKLOADS[name]
    result = compile_source(wl.source).run()
    assert result.trap is None
    assert result.exit_code == wl.expected_exit


@pytest.mark.parametrize("name", ["compress", "health", "li", "treeadd"])
def test_workload_identical_under_softbound(name):
    """Spot-check behavioural equivalence (the full 15x4 sweep runs in
    the Figure 2 benchmark)."""
    wl = WORKLOADS[name]
    protected = compile_source(wl.source, FULL_SHADOW).run()
    assert protected.trap is None, protected.trap
    assert protected.exit_code == wl.expected_exit


def test_suite_split():
    spec = [w for w in all_workloads() if w.suite == "spec"]
    olden = [w for w in all_workloads() if w.suite == "olden"]
    assert len(spec) == 7  # go lbm hmmer compress ijpeg libquantum li
    assert len(olden) == 8


def test_olden_analogues_are_pointer_heavy():
    for wl in all_workloads():
        if wl.suite != "olden":
            continue
        result = compile_source(wl.source).run()
        assert result.stats.pointer_memory_op_fraction > 0.10, wl.name


def test_scalar_spec_analogues_have_no_pointer_traffic():
    for name in ("go", "lbm", "hmmer", "compress", "ijpeg"):
        result = compile_source(WORKLOADS[name].source).run()
        assert result.stats.pointer_memory_op_fraction < 0.02, name


@pytest.mark.parametrize("attack", all_attacks(), ids=lambda a: a.name)
def test_attack_is_a_real_exploit(attack):
    plain = compile_source(attack.source).run()
    assert plain.attack_succeeded, f"{attack.name} did not hijack control"


@pytest.mark.parametrize("attack", all_attacks(), ids=lambda a: a.name)
def test_attack_stopped_by_store_only(attack):
    protected = compile_source(attack.source, STORE_SHADOW).run()
    assert protected.detected_violation


def test_servers_have_realistic_request_streams():
    for server in all_servers():
        plain = compile_source(server.source).run(input_data=server.request_stream)
        assert plain.trap is None
        for fragment in server.expected_output_fragments:
            assert fragment in plain.output


def test_server_zero_false_positives_under_softbound():
    for server in all_servers():
        plain = compile_source(server.source).run(input_data=server.request_stream)
        protected = compile_source(server.source, FULL_SHADOW).run(
            input_data=server.request_stream)
        assert protected.trap is None
        assert protected.output == plain.output
