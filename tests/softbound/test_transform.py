"""SoftBound transform structural tests: what instrumentation is emitted."""

from dataclasses import replace

import pytest

from repro.api import compile_source
from repro.softbound.config import (
    CheckMode,
    FULL_SHADOW,
    STORE_SHADOW,
    SoftBoundConfig,
)


def instructions_of(module, name):
    func = module.functions[name]
    return list(func.instructions())


def opcodes(module, name):
    return [i.opcode for i in instructions_of(module, name)]


def test_functions_are_renamed_with_sb_prefix():
    """Paper Section 3.3: 'the function name is appended with a unique
    identifier, specifying this function has been transformed'."""
    compiled = compile_source("int f(int x) { return x; } int main(void) { return f(1); }",
                              FULL_SHADOW)
    assert "_sb_f" in compiled.module.functions
    assert "_sb_main" in compiled.module.functions
    assert "f" not in compiled.module.functions
    assert compiled.module.sb_aliases["f"] == "_sb_f"


def test_pointer_params_get_base_and_bound_companions():
    src = "int deref(int *p, int n) { return p[n]; } int main(void) { int a[3]; return deref(a, 1); }"
    compiled = compile_source(src, FULL_SHADOW)
    func = compiled.module.functions["_sb_deref"]
    # one pointer param -> exactly two extra params (base, bound)
    assert len(func.sb_extra_params) == 2
    assert "p.base" in func.sb_extra_params[0].name
    assert "p.bound" in func.sb_extra_params[1].name


def test_non_pointer_function_gets_no_extra_params():
    compiled = compile_source("int f(int x) { return x + 1; } int main(void) { return f(1); }",
                              FULL_SHADOW)
    assert compiled.module.functions["_sb_f"].sb_extra_params == []


def test_full_mode_checks_loads_and_stores():
    # optimize_checks off: inspect the raw instrumentation.  (With it on,
    # checkelim correctly removes the load check of a[1], which is
    # dominated by the identical store check.)
    src = "int main(void) { int a[4]; a[1] = 5; return a[1]; }"
    config = replace(FULL_SHADOW, optimize_checks=False)
    compiled = compile_source(src, config)
    checks = [i for i in instructions_of(compiled.module, "_sb_main") if i.opcode == "sb_check"]
    kinds = {c.access_kind for c in checks}
    assert "store" in kinds and "load" in kinds


def test_check_optimization_removes_dominated_load_check():
    """The Section 6.1 effect: re-running the optimizer over the
    instrumented code removes checks made redundant by canonicalization
    (here, the load of a[1] is covered by the store check of a[1])."""
    src = "int main(void) { int a[4]; a[1] = 5; return a[1]; }"
    raw = compile_source(src, replace(FULL_SHADOW, optimize_checks=False))
    cleaned = compile_source(src, FULL_SHADOW)

    def count_checks(compiled):
        return sum(1 for i in instructions_of(compiled.module, "_sb_main")
                   if i.opcode == "sb_check")

    assert count_checks(cleaned) < count_checks(raw)
    assert cleaned.run().exit_code == raw.run().exit_code == 5


def test_store_only_mode_checks_only_stores():
    """Section 6.3: store-only 'fully propagates all metadata, but
    inserts bounds checks only for memory writes'."""
    src = "int main(void) { int a[4]; a[1] = 5; return a[1]; }"
    compiled = compile_source(src, STORE_SHADOW)
    checks = [i for i in instructions_of(compiled.module, "_sb_main")
              if i.opcode == "sb_check" and not i.is_fnptr_check]
    assert checks, "store-only mode must still check stores"
    assert all(c.access_kind == "store" for c in checks)


def test_store_only_still_propagates_metadata():
    src = r'''
    int *identity(int *p) { return p; }
    int main(void) { int x = 3; int *p = identity(&x); return *p; }
    '''
    compiled = compile_source(src, STORE_SHADOW)
    ops = opcodes(compiled.module, "_sb_main")
    # Metadata table traffic still present even though loads unchecked.
    assert compiled.module.functions["_sb_identity"].sb_extra_params


def test_pointer_load_followed_by_metadata_lookup():
    """Section 3.2: table lookup at every load of a pointer value."""
    src = r'''
    int **gpp;
    int main(void) { int *p = *gpp; return 0; }
    '''
    compiled = compile_source(src, FULL_SHADOW)
    instrs = instructions_of(compiled.module, "_sb_main")
    load_idx = [i for i, instr in enumerate(instrs)
                if instr.opcode == "load" and instr.is_pointer_value]
    assert load_idx
    following = [instr.opcode for instr in instrs[load_idx[0] + 1 : load_idx[0] + 3]]
    assert "sb_meta_load" in following


def test_pointer_store_followed_by_metadata_update():
    src = r'''
    int *slot;
    int main(void) { int x; slot = &x; return 0; }
    '''
    compiled = compile_source(src, FULL_SHADOW)
    instrs = instructions_of(compiled.module, "_sb_main")
    store_idx = [i for i, instr in enumerate(instrs)
                 if instr.opcode == "store" and instr.is_pointer_value]
    assert store_idx
    following = [instr.opcode for instr in instrs[store_idx[0] + 1 : store_idx[0] + 3]]
    assert "sb_meta_store" in following


def test_non_pointer_stores_have_no_metadata_update():
    """Section 3.2: 'loads and stores of non-pointer values are
    unaffected' (beyond the bounds check itself)."""
    src = "int g; int main(void) { g = 5; return g; }"
    compiled = compile_source(src, FULL_SHADOW)
    ops = opcodes(compiled.module, "_sb_main")
    assert "sb_meta_store" not in ops
    assert "sb_meta_load" not in ops


def test_indirect_call_gets_function_pointer_check():
    src = r'''
    int f(void) { return 1; }
    int main(void) { int (*fp)(void) = f; return fp(); }
    '''
    compiled = compile_source(src, FULL_SHADOW)
    checks = [i for i in instructions_of(compiled.module, "_sb_main")
              if i.opcode == "sb_check" and i.is_fnptr_check]
    assert len(checks) == 1


def test_direct_call_has_no_function_pointer_check():
    src = "int f(void) { return 1; } int main(void) { return f(); }"
    compiled = compile_source(src, FULL_SHADOW)
    checks = [i for i in instructions_of(compiled.module, "_sb_main")
              if i.opcode == "sb_check" and i.is_fnptr_check]
    assert not checks


def test_call_sites_append_metadata_arguments():
    """Section 3.3: call-site transformation driven by argument types."""
    src = r'''
    int take(int *p) { return *p; }
    int main(void) { int x = 1; return take(&x); }
    '''
    compiled = compile_source(src, FULL_SHADOW)
    calls = [i for i in instructions_of(compiled.module, "_sb_main")
             if i.opcode == "call" and i.callee == "take"]
    assert len(calls) == 1
    # original pointer arg + base + bound
    assert len(calls[0].args) == 3


def test_pointer_return_carries_metadata():
    src = r'''
    int *passthrough(int *p) { return p; }
    int main(void) { int x; return *passthrough(&x); }
    '''
    compiled = compile_source(src, FULL_SHADOW)
    rets = [i for i in instructions_of(compiled.module, "_sb_passthrough")
            if i.opcode == "ret"]
    assert all(getattr(r, "sb_meta", None) is not None for r in rets)
    calls = [i for i in instructions_of(compiled.module, "_sb_main")
             if i.opcode == "call" and i.callee == "passthrough"]
    assert getattr(calls[0], "sb_dst_meta", None) is not None


def test_shrink_bounds_config_controls_field_geps():
    src = r'''
    struct s { char buf[8]; int v; };
    struct s g;
    int main(void) { char *p = g.buf; p[0] = 1; return p[0]; }
    '''
    with_shrink = compile_source(src, FULL_SHADOW)
    without = compile_source(src, SoftBoundConfig(shrink_bounds=False))
    def count_field_bound_geps(compiled):
        return sum(
            1 for i in instructions_of(compiled.module, "_sb_main")
            if i.opcode == "gep" and getattr(i.dst, "hint", "") == "field.sbe")
    assert count_field_bound_geps(with_shrink) >= 1
    assert count_field_bound_geps(without) == 0


def test_checkelim_removes_redundant_checks():
    src = r'''
    int main(void) {
        int a[4];
        int *p = a;
        p[0] = 1; p[0] = 2; p[0] = 3;   /* same slot, same bounds */
        return p[0];
    }
    '''
    unopt = compile_source(src, SoftBoundConfig(optimize_checks=False))
    opt = compile_source(src, FULL_SHADOW)
    def check_count(compiled):
        return sum(1 for i in instructions_of(compiled.module, "_sb_main")
                   if i.opcode == "sb_check")
    assert check_count(opt) <= check_count(unopt)


def test_transform_is_idempotent_per_function():
    compiled = compile_source("int main(void) { return 0; }", FULL_SHADOW)
    from repro.softbound.transform import SoftBoundTransform

    before = list(compiled.module.functions)
    SoftBoundTransform(FULL_SHADOW).run(compiled.module)  # second run
    assert list(compiled.module.functions) == before  # no double rename


def test_transformed_module_passes_verifier():
    from repro.ir.verifier import verify_module

    src = r'''
    struct node { struct node *next; int v; };
    struct node *cons(struct node *tail, int v) {
        struct node *n = (struct node *)malloc(sizeof(struct node));
        n->next = tail; n->v = v; return n;
    }
    int main(void) {
        struct node *list = NULL;
        for (int i = 0; i < 3; i++) list = cons(list, i);
        int t = 0;
        while (list) { t += list->v; list = list->next; }
        return t;
    }
    '''
    compiled = compile_source(src, FULL_SHADOW)
    assert verify_module(compiled.module)
