"""Unit tests for the copy-propagation and CSE passes."""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.typecheck import parse_and_check
from repro.api import compile_source
from repro.ir import instructions as ins
from repro.ir.irtypes import I32
from repro.ir.values import Const, Register
from repro.lower.lowering import lower
from repro.opt import copyprop, cse, mem2reg
from repro.softbound.config import FULL_SHADOW
from repro.workloads.randprog import generate


def lowered(source):
    return lower(parse_and_check(source))


def count_opcode(func, opcode):
    return sum(1 for i in func.instructions() if i.opcode == opcode)


class TestCopyProp:
    def test_rewrites_use_of_copied_register(self):
        module = lowered("int f(int x) { int y = x; return y + y; }")
        func = module.functions["f"]
        mem2reg.run(func)
        rewritten = copyprop.run(func)
        assert rewritten > 0
        # Every remaining binop operand should be the original parameter
        # (or a constant), not a copy.
        param_uid = func.params[0].register.uid
        for instr in func.instructions():
            if instr.opcode == "binop":
                for operand in (instr.a, instr.b):
                    if isinstance(operand, Register):
                        assert operand.uid == param_uid

    def test_redefinition_kills_copy(self):
        # y = x; x = 9; return y  — y's use must NOT become the new x.
        func_src = "int f(int x) { int y = x; x = 9; return y; }"
        compiled_result = compile_source(
            f"{func_src} int main(void) {{ return f(4); }}").run()
        assert compiled_result.exit_code == 4

    def test_constant_copies_propagate(self):
        module = lowered("int f(void) { int a = 7; int b = a; return b; }")
        func = module.functions["f"]
        mem2reg.run(func)
        copyprop.run(func)
        ret = [i for i in func.instructions() if i.opcode == "ret"][0]
        assert isinstance(ret.value, Const) or isinstance(ret.value, Register)

    def test_self_copy_does_not_loop(self):
        func = lowered("int f(int x) { return x; }").functions["f"]
        reg = Register(uid=999, type=I32, hint="t")
        func.blocks[0].instructions.insert(0, ins.Mov(dst=reg, src=reg))
        copyprop.run(func)  # must terminate


class TestCse:
    def test_duplicate_binop_collapsed(self):
        module = lowered(
            "int f(int x, int y) { return (x + y) * (x + y); }")
        func = module.functions["f"]
        mem2reg.run(func)
        copyprop.run(func)
        before = count_opcode(func, "binop")
        replaced = cse.run(func)
        assert replaced >= 1
        assert count_opcode(func, "binop") < before

    def test_redefined_operand_blocks_reuse(self):
        source = """
        int f(int x) {
            int a = x + 1;
            x = x * 2;
            int b = x + 1;   /* different x: must not be CSE'd with a */
            return a + b;
        }
        int main(void) { return f(10); }
        """
        assert compile_source(source).run().exit_code == 32

    def test_gep_with_different_extents_not_merged(self):
        # Two geps with equal base/offset but different field extents
        # must stay distinct: SoftBound's bound shrinking reads them.
        func = lowered("int f(int x) { return x; }").functions["f"]
        base = func.params[0].register
        r1 = Register(uid=9001, type=base.type, hint="g1")
        r2 = Register(uid=9002, type=base.type, hint="g2")
        block = func.blocks[0]
        block.instructions = [
            ins.Gep(dst=r1, base=base, offset=Const(0, I32), field_extent=4),
            ins.Gep(dst=r2, base=base, offset=Const(0, I32), field_extent=8),
        ] + block.instructions
        replaced = cse.run(func)
        assert replaced == 0

    def test_identical_geps_merged(self):
        func = lowered("int f(int x) { return x; }").functions["f"]
        base = func.params[0].register
        r1 = Register(uid=9001, type=base.type, hint="g1")
        r2 = Register(uid=9002, type=base.type, hint="g2")
        block = func.blocks[0]
        block.instructions = [
            ins.Gep(dst=r1, base=base, offset=Const(8, I32)),
            ins.Gep(dst=r2, base=base, offset=Const(8, I32)),
        ] + block.instructions
        assert cse.run(func) == 1
        assert count_opcode(func, "gep") == 1
        assert count_opcode(func, "mov") >= 1


class TestPipelineEffect:
    def test_post_instrumentation_passes_reduce_cost(self):
        """The Section 6.1 claim in miniature: re-optimizing after
        instrumentation reduces runtime cost on address-arithmetic-heavy
        code without changing behaviour."""
        source = """
        int main(void) {
            int a[16];
            int t = 0;
            for (int i = 0; i < 16; i++) { a[i] = i; t += a[i]; }
            return t;
        }
        """
        raw = compile_source(source, replace(
            FULL_SHADOW, optimize_checks=False))
        cleaned = compile_source(source, FULL_SHADOW)
        raw_result, cleaned_result = raw.run(), cleaned.run()
        assert raw_result.exit_code == cleaned_result.exit_code == 120
        assert cleaned_result.stats.cost <= raw_result.stats.cost

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property_new_passes_preserve_semantics(self, seed):
        source = generate(seed).source
        with_opt = compile_source(source, optimize=True).run()
        without = compile_source(source, optimize=False).run()
        assert with_opt.exit_code == without.exit_code
        assert with_opt.output == without.output
        assert with_opt.trap is None and without.trap is None
