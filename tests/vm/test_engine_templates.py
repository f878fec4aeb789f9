"""The template-generated engine against the reference interpreter under
every registered protection profile, and seeded-bug controls showing
the equivalence contracts catch a broken template, a broken region, a
broken specialized call path or a broken per-program specialization
cache.

``test_engine_equivalence.py`` runs SoftBound configurations with no
observers; here every profile in ``all_profiles()`` runs with its own
observers, so the observer, store-observing and baseline-checker
branches of the templates are compared with full ``CostStats`` too.
"""

import re

import pytest
from test_budget_cuts import cuts_disagree  # sibling modules in tests/vm
from test_call_convention import (CONFIGS, JUMP_POINTERS, POINTER_PROFILES,
                                  constant_args_agree, link_agrees,
                                  pointer_signatures, recursion_agrees)
from test_temporal_equivalence import assert_engines_agree as temporal_agree
from test_warm_machines import (PROGRAM, budgets_agree, observed, profiled,
                                warm, warm_agrees)

from repro.api import compile_source
from repro.api.profiles import all_profiles
from repro.obs.profiler import profile_source
from repro.softbound.config import TEMPORAL_SHADOW
from repro.vm import engine
from repro.workloads.attacks import all_attacks
from repro.workloads.bugbench import all_bugs
from repro.workloads.programs import WORKLOADS
from repro.workloads.randprog import generate
from repro.workloads.temporal_attacks import TEMPORAL_ATTACKS

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

#: Loops that run far more often than ``engine.HOT_RUNS``: a region
#: mutant shows only in compiled regions.  Under ``spatial`` the
#: pointer metadata registers a loop body's region computes are read
#: back from the register file by the next region.
LOOPS = r'''
#include <stdio.h>
int main(void) {
    long s = 0, t = 1;
    int a[16];
    for (int i = 0; i < 16; i++) a[i] = i * 7;
    for (int k = 0; k < 20; k++)
        for (int i = 0; i < 16; i++) { s = s * 3 + a[i]; t = t ^ (s >> 3); }
    printf("%ld %ld\n", s, t);
    return (int)((s ^ t) & 0x7f);
}
'''
#: Budget cuts across LOOPS' nested loop.
LOOP_CUTS = range(3_000, 3_040)


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
def test_every_profile_with_its_observers(profile, thresholds):
    for hot_runs in thresholds():
        for name, source in PROGRAMS.items():
            assert engines_agree(source, profile), (name, hot_runs)


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


@pytest.fixture
def region_mutant(fresh_shapes, monkeypatch):
    """Install a rewrite of every generated region's source."""
    def install(rewrite):
        source_of = engine._source

        def mutated(*shape):
            source, *rest = source_of(*shape)
            return (rewrite(source), *rest)

        monkeypatch.setattr(engine, "_source", mutated)
        engine.clear_shapes()

    return install


def drop_forwarded_write_back(source):
    """Delete each ``regs[...] = local`` whose local a later
    instruction of the region reads."""
    lines = source.splitlines(True)
    kept = []
    for i, line in enumerate(lines):
        m = re.fullmatch(r"\s*regs\[\w+\] = (\w+)\n", line)
        if m and any(re.search(rf"\b{m.group(1)}\b", later)
                     for later in lines[i + 1:]):
            continue
        kept.append(line)
    return "".join(kept)


def test_region_control_agrees_unmutated(fresh_shapes):
    from repro.api.profiles import as_profile

    assert engines_agree(LOOPS, as_profile("spatial"))
    assert cuts_disagree(LOOPS, "spatial", LOOP_CUTS) == []


def test_dropped_forwarded_write_back_is_caught(region_mutant):
    # A region that reads a value from its local but never stores it in
    # the register file: the next region reads a stale register.
    from repro.api.profiles import as_profile

    dropped = []

    def rewrite(source):
        mutated = drop_forwarded_write_back(source)
        dropped.append(mutated != source)
        return mutated

    region_mutant(rewrite)
    assert not engines_agree(LOOPS, as_profile("spatial"))
    assert any(dropped)


@pytest.mark.parametrize("correct, mutant", (
    # The region-entry budget test off by one: a region that overruns
    # the budget by one instruction runs to its end.
    ("if n > limit:", "if n > limit + 1:"),
    # No exact slow path: the region traps at entry instead of running
    # up to the budget one instruction at a time.
    ("return slow(frame, regs)",
     "raise Trap(TrapKind.RESOURCE_LIMIT, _RESOURCE_MSG)"),
), ids=("off-by-one-budget", "no-slow-path"))
def test_budget_mutants_are_caught(region_mutant, correct, mutant):
    def rewrite(source):
        assert correct in source
        return source.replace(correct, mutant)

    region_mutant(rewrite)
    assert cuts_disagree(LOOPS, "spatial", LOOP_CUTS) != []


@pytest.fixture
def call_mutant(fresh_shapes, monkeypatch):
    """Install a rewrite of every specialized call op's source."""
    def install(rewrite):
        source_of = engine._source

        def mutated(key, names):
            source, *rest = source_of(key, names)
            if key[0][0][0] == "call":
                source = rewrite(source)
            return (source, *rest)

        monkeypatch.setattr(engine, "_source", mutated)
        engine.clear_shapes()

    return install


def replacing(correct, mutant, applied):
    """A source rewrite of ``correct`` to ``mutant``; ``applied`` gets
    whether each rewritten source held ``correct``."""
    def rewrite(source):
        applied.append(correct in source)
        return source.replace(correct, mutant)

    return rewrite


def test_swapped_companions_are_caught(monkeypatch):
    # The call plan binds each pointer argument's bound to the callee's
    # base companion and its base to the bound companion.
    bindings = engine.param_bindings

    def swapped(function, args, arg_metas, arity, zero=0):
        plan = bindings(function, args, arg_metas, arity, zero)
        extra = {param.register.uid for param in function.sb_extra_params}
        at = [i for i, (uid, _) in enumerate(plan) if uid in extra]
        for base, bound in zip(at[0::arity], at[1::arity]):
            plan[base], plan[bound] = ((plan[base][0], plan[bound][1]),
                                       (plan[bound][0], plan[base][1]))
        return plan

    monkeypatch.setattr(engine, "param_bindings", swapped)
    assert not link_agrees("both-transformed", CONFIGS["full-shadow"])


def test_unacquired_frame_lock_is_caught(call_mutant):
    # The specialized push leaves the frame's (key, lock) registers 0:
    # every pointer into the frame fails its temporal check.
    applied = []
    call_mutant(replacing("key_0, slot_0 = acquire_0(st)",
                          "key_0, slot_0 = 0, 0", applied))
    assert not recursion_agrees("full")
    with pytest.raises(AssertionError):
        temporal_agree(TEMPORAL_ATTACKS["dangling_stack"].source,
                       TEMPORAL_SHADOW)
    assert any(applied)


def test_uncleared_pointer_slot_is_caught(fresh_shapes, monkeypatch):
    # The specialized ret skips its function's first pointer-bearing
    # slot: clearing that slot's metadata costs units it no longer pays.
    layout_of = engine._frame_layout

    def layout(function):
        full = layout_of(function)
        return full._replace(pointer_slots=full.pointer_slots[1:])

    monkeypatch.setattr(engine, "_frame_layout", layout)
    assert not constant_args_agree("spatial")


def test_stack_overflow_off_by_one_frame_is_caught(call_mutant):
    # The specialized overflow test traps one frame early.
    applied = []
    call_mutant(replacing("if base_0 < stack_base_0:",
                          "if base_0 - frame_size_0 < stack_base_0:",
                          applied))
    assert not recursion_agrees("spatial")
    assert applied and all(applied)


def fallback_op(shift):
    """An ``engine._interpreted`` whose op sets ``frame.index`` ``shift``
    offsets past its slot's own, or (None) leaves it as it was."""
    def factory(M, slot):
        eng, index = M["engine"], slot.nxt - 1

        def op(frame, regs):
            if shift is not None:
                frame.index = index + shift
            return engine._interpret(eng, slot, frame, regs)

        return op

    return factory


def fallback_caught(profile):
    """Whether the engines disagree on ``JUMP_POINTERS`` under
    ``profile``.  Resuming at an offset inside a region calls its
    ``None`` op-list entry, a ``TypeError``."""
    try:
        interp, compiled = pointer_signatures(JUMP_POINTERS, profile)
    except TypeError:
        return True
    return interp != compiled


@pytest.mark.parametrize("shift", (1, None), ids=("late", "stale"))
def test_fallback_call_offset_mutants_are_caught(monkeypatch, shift):
    # The op of a call no generated op covers resumes one offset late
    # ("late"), or never sets frame.index, so setjmp through a pointer
    # records whatever offset the frame last transferred at ("stale").
    # Run against the whole tier-1 suite with each mutant built in, both
    # were caught by tests/test_integration.py's kitchen-sink tests,
    # test_interpreter.py's function-pointer table, the softbound
    # function-pointer tests, the table renders, the observed profiles
    # of test_every_profile_with_its_observers, and
    # test_call_convention.py's constant-argument and setjmp/longjmp
    # tests, and test_engine_equivalence.py's tinyftp server; by none of
    # the temporal or loop-opt equivalence suites or the budget cuts.
    monkeypatch.setattr(engine, "_interpreted", fallback_op(shift))
    assert all(fallback_caught(profile) for profile in POINTER_PROFILES)


def test_fallback_control_agrees_unmutated(monkeypatch):
    monkeypatch.setattr(engine, "_interpreted", fallback_op(0))
    assert not any(fallback_caught(profile) for profile in POINTER_PROFILES)


def stale_entries(monkeypatch, names):
    """Install region specializations that keep the first machine's
    values of ``names`` instead of taking each machine's own."""
    make_entry = engine._region_entry

    def mutated(region, eng, function):
        factory, args = make_entry(region, eng, function)
        first = {name: eng.values[name] for name in names}

        def stale(values, *rest):
            return factory(dict(values, **first), *rest)

        return stale, args

    monkeypatch.setattr(engine, "_region_entry", mutated)


def test_kept_stats_are_caught(monkeypatch):
    # A warm machine's regions count into the first machine's stats.
    stale_entries(monkeypatch, ["st"])
    assert not warm_agrees(PROGRAM)


def test_kept_budget_is_caught(monkeypatch):
    # A warm machine's regions test the first machine's larger budget.
    from repro.api.profiles import as_profile

    stale_entries(monkeypatch, ["limit"])
    compiled = compile_source(PROGRAM, profile=as_profile("spatial"))
    full = compiled.run().stats.instructions
    assert not budgets_agree(compiled, [full - 5, full // 2])


def blind_signature(monkeypatch, attribute, blank):
    """Install a machine signature that ignores ``attribute`` (observers
    or the site profile) by reading it as ``blank``."""
    signature = engine._signature

    def blind(machine):
        saved = getattr(machine, attribute)
        setattr(machine, attribute, blank)
        try:
            return signature(machine)
        finally:
            setattr(machine, attribute, saved)

    monkeypatch.setattr(engine, "_signature", blind)


def test_signature_blind_to_observers_is_caught(monkeypatch):
    # An observed machine reuses unobserved specializations: its
    # observer misses the loads and stores of compiled regions.
    from repro.api.profiles import as_profile

    blind_signature(monkeypatch, "observers", [])
    compiled = compile_source(PROGRAM, profile=as_profile("spatial"))
    warm(compiled)
    assert (observed(compiled, "compiled", early_engine=True)
            != observed(compiled, "interp"))


def test_signature_blind_to_site_profiles_is_caught(monkeypatch):
    # A profiled machine reuses unprofiled specializations: its profile
    # misses the sites of compiled regions.
    from repro.api.profiles import as_profile

    blind_signature(monkeypatch, "site_profile", None)
    compiled = compile_source(PROGRAM, profile=as_profile("spatial"))
    warm(compiled)
    assert profiled(compiled) != profiled(compiled, "interp")


def test_clear_shapes_retires_program_specializations(fresh_shapes,
                                                      monkeypatch):
    # A warm program keeps its specializations; after a template
    # changes, clear_shapes() must make its next machine use the new
    # one, or the off-by-one check would go unseen.
    from repro.api.profiles import as_profile

    profile = as_profile("spatial")
    compiled = compile_source(BOUNDARY, profile=profile)
    reference = run_signature(compiled, profile, "interp")
    warm(compiled)
    assert run_signature(compiled, profile, "compiled") == reference
    check = fresh_shapes["sb_check"]
    monkeypatch.setitem(fresh_shapes, "sb_check",
                        check.replace("ptr + size > bound",
                                      "ptr + size >= bound"))
    engine.clear_shapes()
    assert run_signature(compiled, profile, "compiled") != reference


def test_shape_cache_stays_bounded(fresh_shapes, monkeypatch):
    # Every region compiles at its first run, so 200 distinct random
    # programs churn far more shapes than the (lowered) bound holds, and
    # each must still run as under the interpreter; evicted shapes take
    # their lazy traceback source with them.
    import linecache

    from repro.api.profiles import as_profile

    bound = 64
    monkeypatch.setattr(engine, "HOT_RUNS", 1)
    monkeypatch.setattr(engine._SHAPES, "max_entries", bound)
    evictions = engine._SHAPES.evictions
    profile = as_profile("none")
    for seed in range(200):
        compiled = compile_source(generate(seed).source, profile=profile)
        interp = run_signature(compiled, profile, "interp")
        assert run_signature(compiled, profile, "compiled") == interp, seed
        assert interp[2] is None, seed
        assert len(engine._SHAPES) <= bound
    assert engine._SHAPES.evictions - evictions > 0
    sources = [name for name in linecache.cache
               if name.startswith(engine._FILE_PREFIX)]
    assert len(sources) == len(engine._SHAPES)


def test_every_generated_op_has_the_region_header(fresh_shapes,
                                                  monkeypatch):
    # Call, ret and libc-call ops are generated like regions: one budget
    # test whose slow path is the interpreter, and a counter repair
    # when an exception leaves the op.
    import linecache

    from repro.api.profiles import as_profile

    monkeypatch.setattr(engine, "HOT_RUNS", 1)
    compile_source(WORKLOADS["treeadd"].source,
                   profile=as_profile("full")).run()
    templates = set()
    for key, shape in engine._SHAPES._entries.items():
        source = "".join(linecache.getlines(shape[0].__code__.co_filename))
        assert "return slow(frame, regs)" in source, key
        assert "repair(st, exc)" in source, key
        templates.update(text_key[0] for text_key, _, _ in key)
    assert {"call", "ret", "libc_call"} <= templates


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
