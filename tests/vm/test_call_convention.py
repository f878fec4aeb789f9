"""The SoftBound call convention on both engines.

A direct call to a non-variadic module function runs as one specialized
op on the compiled engine: its call plan (which caller register,
constant or zero each callee register gets) is computed once per call
site from the interpreter's own convention, and a protected ``ret``
clears the function's pointer-bearing slots and releases its temporal
lock inline.  These tests compare the whole ``CostStats`` of both
engines, at both region thresholds (the ``thresholds`` fixture), on the
programs whose calls stress that plan:

* the six mixed links of ``sum(int *v, int n)``, where the callee drops
  the metadata a transformed caller appends or zero-fills the
  companions an untransformed caller never passed;
* a protected recursion deep enough to trap ``STACK_OVERFLOW``;
* calls whose pointer arguments are constants or global addresses,
  beside a variadic callee (which keeps the generic frame push);
* libc routines called through function pointers, which no generated
  op covers, so the compiled engine runs the interpreter's ``call``
  handler for them: ``strcpy``, whose returned pointer carries its
  bounds, and ``setjmp``/``longjmp``, which must record and resume the
  call's own offset.

A structural guard pins that protected call-heavy workloads push no
frame through ``Machine._push_frame`` but the entry frame.
"""

import pytest
from test_engine_equivalence import result_signature  # sibling module

from repro.api import compile_source
from repro.api.profiles import as_profile
from repro.harness.linker import compile_module, link_modules
from repro.ir import instructions as ins
from repro.ir.irtypes import I64, PTR
from repro.ir.module import Function, Module, Param
from repro.ir.values import Const, SymbolRef
from repro.softbound.config import FULL_SHADOW, SoftBoundConfig
from repro.vm.errors import TrapKind
from repro.vm.machine import Machine
from repro.workloads.programs import WORKLOADS

TEMPORAL = SoftBoundConfig(temporal=True)
CONFIGS = {"full-shadow": FULL_SHADOW, "temporal": TEMPORAL}

LIBRARY = r'''
int sum(int *v, int n) {
    int total = 0;
    for (int i = 0; i < n; i++) total += v[i];
    return total;
}
'''

MAIN = r'''
int sum(int *v, int n);
int main(void) {
    int data[8];
    for (int i = 0; i < 8; i++) data[i] = i + 1;
    int total = 0;
    for (int k = 0; k < 6; k++) total += sum(data, 8 - k);
    return total & 0x7f;
}
'''

#: Which units of the link carry the SoftBound transform.
LINKS = {"plain-library": (False, True), "plain-main": (True, False),
         "both-transformed": (True, True)}

#: Each frame holds a 2 KiB pointer array, so the 4 MiB stack overflows
#: after about 2,000 frames.
RECURSION = r'''
long down(long *acc, long n) {
    char *names[256];
    names[n % 256] = (char *)acc;
    *acc += n;
    return down(acc, n + 1) + (long)(names[n % 256] != 0);
}
int main(void) {
    long acc = 0;
    return (int)down(&acc, 0);
}
'''

#: Pointer arguments that are global addresses (with and without an
#: addend), string literals and null constants, a callee with a
#: pointer-bearing local, and a variadic callee.
CONSTANT_ARGS = r'''
int table[8] = {1, 2, 3, 4, 5, 6, 7, 8};
char banner[] = "call";
long count(char *s) {
    long n = 0;
    if (s == 0) return -1;
    while (s[n]) n++;
    return n;
}
int sum(int *v, int n) {
    int total = 0;
    for (int i = 0; i < n; i++) total += v[i];
    return total;
}
int first(int *v) { return v ? v[0] : -1; }
long keep(char *s) {
    char *slots[4];
    for (int i = 0; i < 4; i++) slots[i] = s;
    return count(slots[3]);
}
long pick(int n, ...) {
    va_list ap;
    va_start(&ap);
    long total = 0;
    for (int i = 0; i < n; i++) total += *(int *)va_arg_ptr(&ap);
    va_end(&ap);
    return total;
}
int main(void) {
    long t = 0;
    for (int k = 0; k < 6; k++) {
        t += sum(table, 8) + sum(table + 2, 4) + first(0) + first(table + k);
        t += count(banner) + count("literal") + count(0) + keep(banner);
        t += pick(2, table, table + 7);
    }
    printf("%ld\n", t);
    return (int)(t & 0x7f);
}
'''


#: ``strcpy`` and ``strlen`` through function pointers; the pointer
#: ``strcpy`` returns is read one byte past its 8-byte allocation.
LIBC_POINTERS = r'''
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
int main(void) {
    char *(*copy)(char *, char *) = strcpy;
    long (*length)(char *) = strlen;
    char *buf = malloc(8);
    char *end = copy(buf, "abcdefg");
    long n = length(end);
    printf("%ld %c\n", n, end[n - 1]);
    return (int)(n + end[n + 1]);
}
'''

#: ``setjmp`` and ``longjmp`` through function pointers, jumping out of
#: a 5-deep recursion.  The store before ``setjmp`` keeps the call off
#: its frame's first offset, where a stale ``frame.index`` would hold
#: the right value by chance.
JUMP_POINTERS = r'''
#include <stdio.h>
#include <setjmp.h>
jmp_buf env;
int deepest;
void (*jump)(long *, int) = longjmp;
void down(int depth) {
    deepest = depth;
    if (depth == 5) jump(env, 7);
    down(depth + 1);
}
int main(void) {
    int (*save)(long *) = setjmp;
    deepest = 0;
    int got = save(env);
    if (got) {
        printf("back %d\n", got);
        return got + deepest - 5;
    }
    down(1);
    return 0;
}
'''

#: Unprotected, protected, and observed (mudflap) machines.
POINTER_PROFILES = ("none", "spatial", "full", "mudflap")


def signatures(compiled):
    """The interpreter's and the compiled engine's result signatures."""
    return tuple(result_signature(compiled.run(engine=name))
                 for name in ("interp", "compiled"))


def link(name, config):
    library_sb, main_sb = LINKS[name]
    library = compile_module(LIBRARY, softbound=config if library_sb else None,
                             name="lib")
    main = compile_module(MAIN, softbound=config if main_sb else None,
                          name="main")
    return link_modules([library, main], softbound=config)


def link_agrees(name, config):
    interp, compiled = signatures(link(name, config))
    return interp == compiled


def recursion_agrees(profile):
    interp, compiled = signatures(
        compile_source(RECURSION, profile=as_profile(profile)))
    assert interp[2] is not None and interp[2][0] is TrapKind.STACK_OVERFLOW
    return interp == compiled


def constant_args_agree(profile):
    interp, compiled = signatures(
        compile_source(CONSTANT_ARGS, profile=as_profile(profile)))
    assert interp[2] is None, interp[2]
    return interp == compiled


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("name", LINKS)
def test_mixed_links_agree(name, config, thresholds):
    for hot_runs in thresholds():
        assert link_agrees(name, config), hot_runs


def test_mixed_links_exercise_both_sides():
    # Dropped metadata runs clean (the sums of 1..8 down to 1..3);
    # zero-filled companions leave the library's accesses without
    # bounds, so they trap.
    for config in CONFIGS.values():
        result = link("plain-library", config).run(engine="interp")
        assert result.trap is None and result.exit_code == 116
        result = link("plain-main", config).run(engine="interp")
        assert result.trap.kind is TrapKind.SPATIAL_VIOLATION


@pytest.mark.parametrize("profile", ("spatial", "full"))
def test_deep_recursion_overflows_identically(profile, thresholds):
    for hot_runs in thresholds():
        assert recursion_agrees(profile), hot_runs


@pytest.mark.parametrize("profile", ("none", "spatial", "full"))
def test_constant_and_global_pointer_arguments(profile, thresholds):
    for hot_runs in thresholds():
        assert constant_args_agree(profile), hot_runs


def pointer_signatures(source, profile):
    """The interpreter's and the compiled engine's result signatures of
    ``source`` under ``profile``, each machine with its own observers."""
    profile = as_profile(profile)
    compiled = compile_source(source, profile=profile)
    return tuple(result_signature(compiled.run(
        engine=name, observers=profile.make_observers()))
        for name in ("interp", "compiled"))


@pytest.mark.parametrize("profile", POINTER_PROFILES)
def test_libc_through_function_pointers(profile, thresholds):
    for hot_runs in thresholds():
        interp, compiled = pointer_signatures(LIBC_POINTERS, profile)
        assert interp == compiled, hot_runs
    assert interp[1] == "7 g\n"
    if profile in ("spatial", "full"):
        # strcpy's result carries the bounds of its argument.
        assert interp[2][0] is TrapKind.SPATIAL_VIOLATION
        assert "outside [0x" in interp[2][1]
    elif profile == "none":
        assert (interp[0], interp[2]) == (7, None)


@pytest.mark.parametrize("profile", POINTER_PROFILES)
def test_setjmp_longjmp_through_function_pointers(profile, thresholds):
    for hot_runs in thresholds():
        interp, compiled = pointer_signatures(JUMP_POINTERS, profile)
        assert interp == compiled, hot_runs
    assert interp[:3] == (7, "back 7\n", None)


def test_unresolved_symbol_argument_traps_first():
    # A direct call whose argument names a symbol the loader cannot
    # resolve keeps the generic path: argument evaluation traps after
    # the call's counters, before any frame is pushed.
    def build_module():
        module = Module()
        callee = Function("callee", I64)
        param = Param(register=callee.new_reg(PTR, "p"), ctype=None, name="p")
        callee.params.append(param)
        callee.new_block("entry").append(ins.Ret(value=Const(0, I64)))
        module.add_function(callee)
        main = Function("main", I64)
        result = main.new_reg(I64)
        block = main.new_block("entry")
        block.append(ins.Call(dst=result, callee="callee",
                              args=[SymbolRef("nowhere")]))
        block.append(ins.Ret(value=result))
        module.add_function(main)
        return module

    results = []
    for name in ("interp", "compiled"):
        machine = Machine(build_module(), engine=name)
        result = machine.run()
        results.append((result.trap.kind, result.trap.detail,
                        len(machine.frames), machine.stats))
    assert results[0] == results[1]
    assert results[0][:3] == (TrapKind.SEGFAULT, "unresolved symbol nowhere", 1)


#: Call-heavy workloads whose direct calls must all take the
#: specialized op.
GUARDED = ("treeadd", "li", "tsp", "bh", "bisort", "hmmer")


@pytest.mark.parametrize("profile", ("spatial", "full"))
@pytest.mark.parametrize("name", GUARDED)
def test_protected_calls_skip_the_generic_push(name, profile, monkeypatch):
    # Only the entry frame goes through Machine._push_frame; a
    # condition that silently stopped matching would send every call
    # back through it (thousands per run) without failing any timing
    # gate, which measures unprotected builds.
    pushed = []
    push = Machine._push_frame

    def counting(self, function, *args, **kwargs):
        pushed.append(function.name)
        return push(self, function, *args, **kwargs)

    monkeypatch.setattr(Machine, "_push_frame", counting)
    compiled = compile_source(WORKLOADS[name].source,
                              profile=as_profile(profile))
    result = compiled.run(engine="compiled")
    assert result.trap is None
    assert result.stats.calls > 1000
    assert pushed == ["_sb_main"]
