"""The template-generated engine against the reference interpreter under
every registered protection profile, and seeded-bug controls showing
the equivalence contracts catch a broken template.

``test_engine_equivalence.py`` runs SoftBound configurations with no
observers; here every profile in ``all_profiles()`` runs with its own
observers, so the observer, store-observing and baseline-checker
branches of the templates are compared with full ``CostStats`` too.
"""

import pytest

from repro.api import compile_source
from repro.api.profiles import all_profiles
from repro.obs.profiler import profile_source
from repro.vm import engine
from repro.workloads.attacks import all_attacks
from repro.workloads.bugbench import all_bugs
from repro.workloads.programs import WORKLOADS

#: Struct copies (memcopy), float stores, unsigned compares, division
#: and shifts: the template branches the paper workloads rarely reach.
MIXED = r'''
#include <stdio.h>
#include <stdlib.h>
struct pt { long x; double y; char tag[6]; };
struct pt g;
int main(void) {
    struct pt a, b;
    a.x = 7; a.y = 2.5; a.tag[0] = 'a';
    b = a;
    g = b;
    unsigned int u = 40000u;
    long s = -17;
    double d = b.y / 0.5;
    long q = s / 3 + s % 3 + (long)(u / 7u) + (long)(u % 7u) + (s >> 2);
    struct pt *p = malloc(sizeof(struct pt) * 4);
    for (unsigned i = 0; i < 4u; i++) { p[i] = g; p[i].x += i; }
    long sum = 0;
    for (int i = 0; i < 4; i++) sum += p[i].x + (long)p[i].y;
    free(p);
    printf("%ld %ld %d\n", q, sum, (int)d);
    return (int)(sum & 0x7f);
}
'''

#: Pointer loads from memory (sb_meta_load) and in-bounds accesses that
#: end exactly at their object's bound.
BOUNDARY = r'''
#include <stdlib.h>
struct node { struct node *next; long v; };
int main(void) {
    struct node *head = 0;
    for (int i = 0; i < 8; i++) {
        struct node *n = malloc(sizeof *n);
        n->next = head; n->v = i; head = n;
    }
    long s = 0;
    for (struct node *n = head; n; n = n->next) s += n->v;
    int a[4];
    for (int i = 0; i < 4; i++) a[i] = (int)s + i;
    return a[3] & 0x7f;
}
'''


def _programs():
    attacks = {attack.name: attack for attack in all_attacks()}
    bugs = {bug.name: bug for bug in all_bugs()}
    return {
        "health": WORKLOADS["health"].source,
        "stack_direct_ret": attacks["stack_direct_ret"].source,
        "stack_direct_fnptr_local": attacks["stack_direct_fnptr_local"].source,
        "bug_go": bugs["go"].source,
        "mixed": MIXED,
    }


PROGRAMS = _programs()


def run_signature(compiled, profile, engine_name):
    machine = compiled.instantiate(observers=profile.make_observers(),
                                   engine=engine_name)
    result = machine.run()
    trap = result.trap
    if trap is not None:
        trap = (trap.kind, trap.detail, trap.address, trap.target_symbol,
                trap.source)
    return result.exit_code, result.output, trap, result.stats


def engines_agree(source, profile):
    compiled = compile_source(source, profile=profile)
    return (run_signature(compiled, profile, "interp")
            == run_signature(compiled, profile, "compiled"))


@pytest.mark.parametrize("profile", all_profiles(), ids=lambda p: p.name)
def test_every_profile_with_its_observers(profile):
    for name, source in PROGRAMS.items():
        assert engines_agree(source, profile), name


@pytest.fixture
def fresh_shapes():
    engine.clear_shapes()
    yield engine.TEMPLATES
    engine.clear_shapes()


def test_control_engines_agree_unmutated(fresh_shapes):
    from repro.api.profiles import as_profile

    assert engines_agree(BOUNDARY, as_profile("spatial"))
    interp = profile_source(BOUNDARY, profile="spatial", engine="interp")
    compiled = profile_source(BOUNDARY, profile="spatial", engine="compiled")
    assert interp.sites == compiled.sites
    assert interp.totals["sb_meta_load"] > 0


def test_seeded_template_bugs_are_caught(fresh_shapes, monkeypatch):
    from repro.api.profiles import as_profile

    # An off-by-one spatial check (``>`` flipped to ``>=``): the
    # equivalence check must see the in-bounds boundary access trap.
    check = fresh_shapes["sb_check"]
    assert "ptr + size > bound" in check
    monkeypatch.setitem(fresh_shapes, "sb_check",
                        check.replace("ptr + size > bound",
                                      "ptr + size >= bound"))
    engine.clear_shapes()
    assert not engines_agree(BOUNDARY, as_profile("spatial"))

    # A template that forgot its profile line: the cross-engine
    # profiler check must see the missing per-site counts.
    monkeypatch.setitem(fresh_shapes, "sb_check", check)
    meta_load = fresh_shapes["sb_meta_load"]
    profile_line = "?profile counts[pkey] = counts.get(pkey, 0) + 1\n"
    assert profile_line in meta_load
    monkeypatch.setitem(fresh_shapes, "sb_meta_load",
                        meta_load.replace(profile_line, ""))
    engine.clear_shapes()
    interp = profile_source(BOUNDARY, profile="spatial", engine="interp")
    compiled = profile_source(BOUNDARY, profile="spatial", engine="compiled")
    assert interp.sites != compiled.sites


def test_unresolved_symbol_traps_identically():
    # A symbol operand the loader cannot resolve is bound as an accessor
    # that traps when executed, not when the op is built.
    from repro.ir import instructions as ins
    from repro.ir.irtypes import I64
    from repro.ir.module import Function, Module
    from repro.ir.values import Const, SymbolRef
    from repro.vm.machine import Machine

    def build_module():
        module = Module()
        func = Function("main", I64)
        block = func.new_block("entry")
        value = func.new_reg(I64)
        block.append(ins.BinOp(dst=value, op="add", a=SymbolRef("nowhere"),
                               b=Const(1, I64)))
        block.append(ins.Ret(value=value))
        module.add_function(func)
        return module

    results = []
    for name in ("interp", "compiled"):
        machine = Machine(build_module(), engine=name)
        result = machine.run()
        results.append((result.trap.kind, result.trap.detail,
                        machine.stats.instructions, machine.stats.cost))
    assert results[0] == results[1]
    assert results[0][1] == "unresolved symbol nowhere"
