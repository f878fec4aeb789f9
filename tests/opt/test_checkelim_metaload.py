"""Dominance/block-scoped deduplication of ``sb_meta_load``s."""

from dataclasses import replace

from repro.api import compile_source
from repro.softbound.config import FULL_SHADOW

RAW = replace(FULL_SHADOW, optimize_checks=False)


def static_meta_loads(compiled, fname="_sb_main"):
    return sum(1 for i in compiled.module.functions[fname].instructions()
               if i.opcode == "sb_meta_load")


class TestCrossBlockDedup:
    # `pp`'s pointee is re-read in both arms; every `*pp` read loads
    # p's slot metadata.  The helper is call-free and store-free, so
    # the table provably cannot change between the dominating read in
    # the entry block and the dominated re-reads in the arms —
    # cross-block (dominance-scoped) dedup applies.
    SOURCE = """
    int pick(int **pp, int which) {
        int first = **pp;
        if (which) { return first + **pp; }
        return first + **pp + 1;
    }
    int main(void) {
        int *p = (int *)malloc(sizeof(int));
        *p = 20;
        return pick(&p, 0) + 1;
    }
    """

    def test_dominated_reload_is_deduplicated(self):
        with_opt = compile_source(self.SOURCE, FULL_SHADOW)
        without = compile_source(self.SOURCE, RAW)
        # `pick` holds the dominating load of pp's slot plus dominated
        # reloads in both arms; dedup leaves strictly fewer.
        assert static_meta_loads(with_opt, "_sb_pick") \
            < static_meta_loads(without, "_sb_pick")

    def test_behaviour_and_result_unchanged(self):
        a = compile_source(self.SOURCE, RAW).run()
        b = compile_source(self.SOURCE, FULL_SHADOW).run()
        assert a.trap is None and b.trap is None
        assert a.exit_code == b.exit_code == 42
        assert b.stats.metadata_loads <= a.stats.metadata_loads

    def test_dynamic_metadata_loads_drop(self):
        a = compile_source(self.SOURCE, RAW).run()
        b = compile_source(self.SOURCE, FULL_SHADOW).run()
        assert b.stats.metadata_loads < a.stats.metadata_loads


class TestTableWriteBarriers:
    def test_call_blocks_cross_block_dedup(self):
        # The callee may rewrite any slot's metadata, so the reload
        # after the call must survive.
        source = """
        void clobber(int **pp) { *pp = (int *)malloc(2 * sizeof(int)); }
        int use(int **pp) {
            int a = **pp;
            clobber(pp);
            return a + **pp;
        }
        int main(void) {
            int *p = (int *)malloc(sizeof(int));
            *p = 5;
            return use(&p);
        }
        """
        compiled = compile_source(source, FULL_SHADOW)
        result = compiled.run()
        assert result.trap is None
        # Both loads of pp's slot remain: a call sits between them.
        assert static_meta_loads(compiled, "_sb_use") >= 2

    def test_pointer_store_updates_are_observed(self):
        # Within one block: p is overwritten through the table between
        # the two reads; the second read must see the *new* bounds (the
        # transform forwards the stored pair, which is the new entry).
        source = """
        int main(void) {
            int *p = (int *)malloc(sizeof(int));
            int **pp = &p;
            *p = 1;
            *pp = (int *)malloc(4 * sizeof(int));
            int *q = *pp;
            q[3] = 9;    /* legal only with the NEW bounds */
            return q[3];
        }
        """
        result = compile_source(source, FULL_SHADOW).run()
        assert result.trap is None
        assert result.exit_code == 9
