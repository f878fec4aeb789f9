"""Instruction-budget cuts: both engines must stop a run at the same
instruction with the same counters.

The compiled engine tests the budget once per region and, when the
region does not fit, runs it through the interpreter's handlers one
instruction at a time.  These tests cut runs at every budget of a few
40-wide windows, so many cuts land inside a compiled region, and
compare the trap (kind, detail), the whole ``CostStats`` and the
check-site profile of the two engines.  The windows sit past the point
where the programs' loops have run ``engine.HOT_RUNS`` times, so the
cut regions are compiled ones.  The attack's cuts run at both region
thresholds (see the ``thresholds`` fixture): at the engine's own, most
of its short run stays interpreted.
"""

import pytest

from repro.api import compile_source
from repro.api.profiles import as_profile
from repro.obs.profiler import SiteProfile
from repro.workloads.attacks import all_attacks
from repro.workloads.programs import WORKLOADS

WIDTH = 40
#: First budget of each window.
WINDOWS = (1_500, 6_000, 12_000)
#: The attack runs a few dozen instructions, so one window covers
#: every cut of it, the trap included.
ATTACK = "stack_direct_ret"


def cut_signature(compiled, profile, engine_name, budget):
    machine = compiled.instantiate(max_instructions=budget,
                                   observers=profile.make_observers(),
                                   engine=engine_name)
    sites = SiteProfile()
    machine.attach_site_profile(sites)
    result = machine.run()
    machine.memory.release()
    trap = result.trap
    if trap is not None:
        trap = (trap.kind, trap.detail)
    return result.exit_code, trap, result.stats, dict(sites.counts)


def cuts_disagree(source, profile_name, budgets):
    """The budgets at which the two engines differ."""
    profile = as_profile(profile_name)
    compiled = compile_source(source, profile=profile)
    return [budget for budget in budgets
            if cut_signature(compiled, profile, "interp", budget)
            != cut_signature(compiled, profile, "compiled", budget)]


def window_budgets(windows=WINDOWS):
    return [start + offset for start in windows for offset in range(WIDTH)]


@pytest.mark.parametrize("profile", ("spatial", "full"))
@pytest.mark.parametrize("name", ("go", "treeadd"))
def test_workload_cuts_agree(name, profile):
    assert cuts_disagree(WORKLOADS[name].source, profile,
                         window_budgets()) == []


@pytest.mark.parametrize("profile", ("none", "spatial"))
def test_attack_cuts_agree(profile, thresholds):
    attack = {attack.name: attack for attack in all_attacks()}[ATTACK]
    for _ in thresholds():
        assert cuts_disagree(attack.source, profile, range(WIDTH + 40)) == []


def test_windows_cut_the_runs():
    # Every window ends before the shortest of the runs above does, so
    # each cut stops a run with RESOURCE_LIMIT.
    profile = as_profile("spatial")
    compiled = compile_source(WORKLOADS["treeadd"].source, profile=profile)
    _, trap, stats, _ = cut_signature(compiled, profile, "compiled",
                                      WINDOWS[-1] + WIDTH)
    assert trap is not None and trap[0].name == "RESOURCE_LIMIT"
    assert stats.instructions == WINDOWS[-1] + WIDTH + 1
