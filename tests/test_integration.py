"""Cross-module integration: the full pipeline on programs combining
every feature, plus differential protected-vs-unprotected equivalence."""

import pytest

from repro import compile_source
from repro.softbound.config import FIGURE2_CONFIGS, FULL_SHADOW

KITCHEN_SINK = r'''
typedef struct entry { char key[12]; int value; struct entry *next; } entry_t;

entry_t *table[8];
int collisions;

int hash_key(char *key) {
    int h = 0;
    for (char *p = key; *p; p++) h = (h * 31 + *p) % 8;
    return h < 0 ? h + 8 : h;
}

void insert(char *key, int value) {
    int h = hash_key(key);
    if (table[h]) collisions++;
    entry_t *e = (entry_t *)malloc(sizeof(entry_t));
    strncpy(e->key, key, 11);
    e->key[11] = 0;
    e->value = value;
    e->next = table[h];
    table[h] = e;
}

int lookup(char *key) {
    for (entry_t *e = table[hash_key(key)]; e; e = e->next)
        if (strcmp(e->key, key) == 0) return e->value;
    return -1;
}

int apply_all(int (*fn)(int)) {
    int total = 0;
    for (int i = 0; i < 8; i++)
        for (entry_t *e = table[i]; e; e = e->next)
            total += fn(e->value);
    return total;
}

int double_it(int x) { return 2 * x; }

int main(void) {
    char name[12];
    for (int i = 0; i < 20; i++) {
        sprintf(name, "key%d", i);
        insert(name, i * i);
    }
    int found = lookup("key7") + lookup("key19");
    int missing = lookup("absent");
    int doubled = apply_all(double_it);
    printf("found=%d missing=%d doubled=%d collisions=%d\n",
           found, missing, doubled, collisions);
    return (found + doubled) % 256;
}
'''


def test_kitchen_sink_runs_unprotected():
    result = compile_source(KITCHEN_SINK).run()
    assert result.trap is None
    assert "found=410 missing=-1" in result.output


@pytest.mark.parametrize("config", FIGURE2_CONFIGS, ids=lambda c: c.label)
def test_kitchen_sink_identical_under_every_config(config):
    plain = compile_source(KITCHEN_SINK).run()
    protected = compile_source(KITCHEN_SINK, config).run()
    assert protected.trap is None
    assert protected.output == plain.output
    assert protected.exit_code == plain.exit_code


def test_protection_composes_with_every_feature_at_once():
    """setjmp + varargs + function pointers + sub-object pointers in one
    program, protected, with the bug at the very end still caught."""
    src = r'''
    jmp_buf env;
    int logsum(int n, ...) {
        va_list ap;
        va_start(&ap);
        int t = 0;
        for (int i = 0; i < n; i++) t += (int)va_arg_long(&ap);
        va_end(&ap);
        return t;
    }
    struct box { char tag[4]; int payload; };
    int main(void) {
        struct box b;
        b.payload = 5;
        if (setjmp(env) == 0) {
            int (*f)(int, ...) = logsum;
            int s = f(3, 1, 2, 3);
            if (s == 6) longjmp(env, 42);
            return 1;
        }
        char *t = b.tag;
        t[4] = 'x';            /* sub-object overflow into payload */
        return 2;
    }
    '''
    plain = compile_source(src).run()
    assert plain.trap is None and plain.exit_code == 2  # silent corruption
    protected = compile_source(src, FULL_SHADOW).run()
    assert protected.detected_violation


def test_deep_recursion_under_protection():
    src = r'''
    int depth(int n) { return n == 0 ? 0 : 1 + depth(n - 1); }
    int main(void) { return depth(200) == 200; }
    '''
    assert compile_source(src, FULL_SHADOW).run().exit_code == 1


def test_metadata_stats_track_activity():
    result = compile_source(KITCHEN_SINK, FULL_SHADOW).run()
    stats = result.stats
    assert stats.metadata_loads > 0
    assert stats.metadata_stores > 0
    assert stats.checks > stats.metadata_loads  # non-pointer ops checked too
