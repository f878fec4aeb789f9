"""Later machines of one program on the compiled engine.

The compiled engine keeps what it specializes on the program: each
region's execution count and, per machine signature, the machine-
independent half of each region, call and ret op.  A machine after the
program's first therefore compiles a region that was hot on earlier
machines at its first execution, and binds it, like every call and
ret, with one factory call on its own values.  These tests pin that
such a machine behaves like the interpreter and like a first machine:
its own budget, stats and site profile, observers attached after its
engine exists, and a program that pickles the same after it ran.  A
structural guard pins that from the ``HOT_RUNS + 1``-th machine on the
same input nothing is bound afresh.
"""

import base64

import pytest
from test_engine_equivalence import result_signature  # sibling module

from repro.api import compile_source
from repro.api.profiles import as_profile
from repro.obs.profiler import SiteProfile
from repro.serve.loadgen import build_mix
from repro.store.format import dumps_program
from repro.vm import engine
from repro.vm.engine import ClosureEngine
from repro.vm.errors import TrapKind
from repro.vm.machine import Observer
from repro.workloads.programs import WORKLOADS

#: Loops that run far more often than ``engine.HOT_RUNS``, with calls
#: and pointer metadata under ``spatial``.
PROGRAM = r'''
#include <stdio.h>
#include <stdlib.h>
long step(long *a, int i) { return a[i] * 3 + 1; }
int main(void) {
    long *a = malloc(16 * sizeof(long));
    long s = 0;
    for (int i = 0; i < 16; i++) a[i] = i * 7;
    for (int k = 0; k < 20; k++)
        for (int i = 0; i < 16; i++) s = (s ^ step(a, i)) & 0xffff;
    free(a);
    printf("%ld\n", s);
    return (int)(s & 0x7f);
}
'''


def run(compiled, engine_name="compiled", **kwargs):
    machine = compiled.instantiate(engine=engine_name, **kwargs)
    result = machine.run()
    machine.memory.release()
    return result


def warm(compiled, runs=engine.HOT_RUNS + 1, **kwargs):
    """Run ``runs`` compiled machines of ``compiled``."""
    for _ in range(runs):
        run(compiled, **kwargs)


def warm_agrees(source, profile="spatial", **kwargs):
    """Whether a warm machine of ``source``'s program matches the
    interpreter."""
    compiled = compile_source(source, profile=as_profile(profile))
    warm(compiled, **kwargs)
    return (result_signature(run(compiled, "interp", **kwargs))
            == result_signature(run(compiled, **kwargs)))


def budgets_agree(compiled, budgets):
    """Whether machines of one program, one per budget in that order,
    each stop where the interpreter does."""
    return all(
        result_signature(run(compiled, "interp", max_instructions=budget))
        == result_signature(run(compiled, max_instructions=budget))
        for budget in budgets)


def test_warm_machine_agrees():
    assert warm_agrees(PROGRAM)
    assert warm_agrees(PROGRAM, "full")


@pytest.mark.parametrize("order", (1, -1), ids=("rising", "falling"))
def test_each_machine_keeps_its_own_budget(order):
    # A serve worker runs each request of one program under the
    # request's own budget.
    compiled = compile_source(PROGRAM, profile=as_profile("spatial"))
    full = run(compiled).stats.instructions
    budgets = [full // 3, full // 2, full - 5][::order]
    assert budgets_agree(compiled, budgets)
    for budget in budgets:
        result = run(compiled, max_instructions=budget)
        assert result.trap.kind is TrapKind.RESOURCE_LIMIT
        assert result.stats.instructions == budget + 1


def profiled(compiled, engine_name="compiled"):
    machine = compiled.instantiate(engine=engine_name)
    sites = machine.attach_site_profile(SiteProfile())
    machine.run()
    machine.memory.release()
    return dict(sites.counts)


def test_unprofiled_machine_leaves_the_profile_alone():
    compiled = compile_source(PROGRAM, profile=as_profile("spatial"))
    reference = profiled(compiled, "interp")
    assert reference
    for _ in range(engine.HOT_RUNS):
        assert profiled(compiled) == reference
    machine = compiled.instantiate()
    sites = machine.attach_site_profile(SiteProfile())
    machine.run()
    assert sites.counts == reference
    counts = dict(sites.counts)
    warm(compiled)
    assert sites.counts == counts


def test_profiled_machine_after_unprofiled_ones_counts_every_site():
    compiled = compile_source(PROGRAM, profile=as_profile("spatial"))
    warm(compiled)
    assert profiled(compiled) == profiled(compiled, "interp")


class Accesses(Observer):
    """Counts every load and store an observer is told about."""

    def __init__(self):
        self.loads = self.stores = 0

    def on_load(self, addr, size):
        self.loads += 1

    def on_store(self, addr, size):
        self.stores += 1


def observed(compiled, engine_name, early_engine=False):
    machine = compiled.instantiate(engine=engine_name)
    if early_engine:
        machine._engine = ClosureEngine(machine)
    accesses = machine.attach_observer(Accesses())
    result = machine.run()
    machine.memory.release()
    return accesses.loads, accesses.stores, result_signature(result)


def test_observer_attached_after_the_engine_exists():
    compiled = compile_source(PROGRAM, profile=as_profile("spatial"))
    warm(compiled)
    reference = observed(compiled, "interp")
    assert reference[0] > 100 and reference[1] > 10
    assert observed(compiled, "compiled", early_engine=True) == reference


@pytest.mark.parametrize("profile", ("spatial", "full"))
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_warm_runs_leave_the_pickle_alone(name, profile):
    # Per-program specializations live on the program's functions and
    # module, and stay out of its pickle.
    compiled = compile_source(WORKLOADS[name].source,
                              profile=as_profile(profile))
    before = dumps_program(compiled)
    warm(compiled)
    assert dumps_program(compiled) == before


def test_specializations_keep_no_machine_alive():
    # A program's entries hold program-level values only: once a run's
    # machine and result are dropped, nothing of the machine survives.
    import gc
    import weakref

    compiled = compile_source(PROGRAM, profile=as_profile("full"))
    warm(compiled)
    machine = compiled.instantiate()
    sites = machine.attach_site_profile(SiteProfile())
    machine.run()
    machine.memory.release()
    refs = [weakref.ref(obj) for obj in (machine, machine.memory,
                                         machine._engine, machine.sb_runtime,
                                         machine.libc)]
    del machine, sites
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_load_plan_follows_module_changes():
    # Machines copy one load plan per module, recomputed when the
    # module's globals (or functions) change.
    from repro.ir.module import GlobalVar

    compiled = compile_source(PROGRAM, profile=as_profile("spatial"))
    before = compiled.instantiate()
    assert compiled.instantiate().call_sites == before.call_sites
    compiled.module.add_global(GlobalVar(name="extra", ctype=None,
                                         data=b"\x07" * 8))
    after = compiled.instantiate()
    assert "extra" not in before.symbol_addrs
    assert after.memory.read_int(after.symbol_addrs["extra"], 8) \
        == 0x0707070707070707
    assert result_signature(run(compiled)) == result_signature(
        run(compiled, "interp"))


def serve_programs():
    """The non-malformed requests of perfbench serve-warm's traffic:
    ``(name, program, input)``, compiled at ``-O1``."""
    programs = []
    for item in build_mix(seed=11):
        if item.category == "malformed":
            continue
        doc = item.doc
        programs.append((item.name, compile_source(
            doc["source"], profile=as_profile(doc["profile"]), optimize=1),
            base64.b64decode(doc.get("input_b64", ""))))
    return programs


@pytest.fixture
def calls(monkeypatch):
    """Count the calls of every function that specializes afresh (each
    entry builder, binder, plan and generator), of ``_bind_region`` and
    of ``_interpret``; ``_interpret call`` counts apart the interpreted
    executions of call slots, the calls no generated op covers."""
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for opcode, binder in list(engine._BINDERS.items()):
        monkeypatch.setitem(engine._BINDERS, opcode,
                            counting("_BINDERS", binder))
    for name in ("_call_plan", "_builtin_plan", "_generate", "_bind_call",
                 "_bind_builtin", "_region_entry", "_ret_entry",
                 "_call_entry", "_interp_entry", "_sentinel_entry",
                 "_interpret", "_bind_region"):
        monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
    interpret = engine._interpret

    def interpreting(eng, region, frame, regs):
        if region.instrs[0].opcode == "call":
            counts["_interpret call"] = counts.get("_interpret call", 0) + 1
        return interpret(eng, region, frame, regs)

    monkeypatch.setattr(engine, "_interpret", interpreting)
    return counts


def test_serve_traffic_warms_up_once(calls):
    programs = serve_programs()
    assert len(programs) == 16
    references = [result_signature(run(compiled, "interp", input_data=data))
                  for _, compiled, data in programs]
    first = [result_signature(run(compiled, input_data=data))
             for _, compiled, data in programs]
    assert first == references
    # Each program's first machine starts cold: over the mix it
    # interprets 552 region executions, builds 127 region entries, and
    # runs the 24 calls no generated op covers (the servers' indirect
    # calls) through the interpreter's handler.
    assert (calls["_interpret"] - calls["_interpret call"],
            calls["_interpret call"], calls["_region_entry"]) == (552, 24, 127)
    for _ in range(engine.HOT_RUNS - 1):
        for _, compiled, data in programs:
            run(compiled, input_data=data)
    calls.clear()
    warmed = [result_signature(run(compiled, input_data=data))
              for _, compiled, data in programs]
    assert warmed == references
    assert set(calls) <= {"_bind_region", "_interpret", "_interpret call"}, \
        calls
    assert calls["_interpret"] == calls["_interpret call"] == 24


@pytest.mark.parametrize("profile", ("spatial", "full"))
@pytest.mark.parametrize("name", ("treeadd", "li", "tsp", "bh", "bisort",
                                  "hmmer"))
def test_call_heavy_workloads_warm_up_once(name, profile, calls):
    source = WORKLOADS[name].source
    compiled = compile_source(source, profile=as_profile(profile))
    reference = result_signature(run(compiled, "interp"))
    calls.clear()
    assert result_signature(run(compiled)) == reference
    first = dict(calls)
    # Another program of the same source starts cold all the same (but
    # for the shapes, which the process keeps).
    calls.clear()
    run(compile_source(source, profile=as_profile(profile)))
    calls.pop("_generate", None)
    first.pop("_generate", None)
    assert calls == first
    warm(compiled, engine.HOT_RUNS - 1)
    calls.clear()
    assert result_signature(run(compiled)) == reference
    assert set(calls) <= {"_bind_region"}, calls
