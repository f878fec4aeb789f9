"""Use-before-definition verifier tests (the must-define analysis the
closure-compiled engine relies on for direct ``frame.regs`` access)."""

import pytest

from repro.api import compile_source
from repro.ir import instructions as ins
from repro.ir.irtypes import I32
from repro.ir.module import Function
from repro.ir.values import Const
from repro.ir.verifier import (
    VerifierError,
    definite_assignment_errors,
    verify_function,
)


def _ret0(func, block, reg=None):
    block.append(ins.Ret(value=reg if reg is not None else Const(0, I32)))


def test_straight_line_use_before_def_rejected():
    func = Function("f", I32)
    reg = func.new_reg(I32)
    dst = func.new_reg(I32)
    entry = func.new_block("entry")
    # reads `reg` before anything defines it
    entry.append(ins.BinOp(dst=dst, op="add", a=reg, b=Const(1, I32)))
    entry.append(ins.Ret(value=dst))
    with pytest.raises(VerifierError, match="use of"):
        verify_function(func)
    assert definite_assignment_errors(func)


def test_definition_later_in_block_does_not_legalize_earlier_use():
    func = Function("f", I32)
    reg = func.new_reg(I32)
    dst = func.new_reg(I32)
    entry = func.new_block("entry")
    entry.append(ins.BinOp(dst=dst, op="add", a=reg, b=Const(1, I32)))
    entry.append(ins.Mov(dst=reg, src=Const(5, I32)))  # too late
    entry.append(ins.Ret(value=dst))
    with pytest.raises(VerifierError, match="before definition"):
        verify_function(func)


def test_defined_on_both_branches_is_accepted():
    func = Function("f", I32)
    cond = func.new_reg(I32)
    val = func.new_reg(I32)
    entry = func.new_block("entry")
    then = func.new_block("then")
    other = func.new_block("else")
    join = func.new_block("join")
    entry.append(ins.Mov(dst=cond, src=Const(1, I32)))
    entry.append(ins.CBr(cond=cond, true_label=then.label, false_label=other.label))
    then.append(ins.Mov(dst=val, src=Const(1, I32)))
    then.append(ins.Br(label=join.label))
    other.append(ins.Mov(dst=val, src=Const(2, I32)))
    other.append(ins.Br(label=join.label))
    join.append(ins.Ret(value=val))
    assert verify_function(func)
    assert definite_assignment_errors(func) == []


def test_defined_on_one_branch_only_is_rejected():
    func = Function("f", I32)
    cond = func.new_reg(I32)
    val = func.new_reg(I32)
    entry = func.new_block("entry")
    then = func.new_block("then")
    join = func.new_block("join")
    entry.append(ins.Mov(dst=cond, src=Const(1, I32)))
    entry.append(ins.CBr(cond=cond, true_label=then.label, false_label=join.label))
    then.append(ins.Mov(dst=val, src=Const(1, I32)))
    then.append(ins.Br(label=join.label))
    join.append(ins.Ret(value=val))  # val undefined on the fall-through path
    with pytest.raises(VerifierError, match="before definition"):
        verify_function(func)


def test_loop_carried_definition_is_accepted():
    """A register defined before a loop and updated inside it is defined
    on every path into every read."""
    func = Function("f", I32)
    acc = func.new_reg(I32)
    cond = func.new_reg(I32)
    entry = func.new_block("entry")
    body = func.new_block("body")
    done = func.new_block("done")
    entry.append(ins.Mov(dst=acc, src=Const(0, I32)))
    entry.append(ins.Br(label=body.label))
    body.append(ins.BinOp(dst=acc, op="add", a=acc, b=Const(1, I32)))
    body.append(ins.Cmp(dst=cond, pred="slt", a=acc, b=Const(10, I32)))
    body.append(ins.CBr(cond=cond, true_label=body.label, false_label=done.label))
    done.append(ins.Ret(value=acc))
    assert verify_function(func)


def test_unreachable_block_reads_are_not_flagged():
    func = Function("f", I32)
    ghost = func.new_reg(I32)
    entry = func.new_block("entry")
    dead = func.new_block("dead")
    entry.append(ins.Ret(value=Const(0, I32)))
    dead.append(ins.Ret(value=ghost))  # never executes
    assert definite_assignment_errors(func) == []


def test_param_registers_count_as_defined():
    source = "int id(int x) { return x; } int main(void) { return id(9); }"
    assert compile_source(source).run().exit_code == 9


def test_uninitialized_local_still_reads_zero_end_to_end():
    """mem2reg zero-initializes maybe-undefined promoted slots, so the
    strict verifier accepts the module and the program keeps the
    historical read-as-0 behaviour on the uninitialized path."""
    source = r'''
    int main(void) {
        int x;
        int flag = 0;
        if (flag) x = 7;
        return x;    /* read of x on the never-stored path */
    }
    '''
    result = compile_source(source).run()
    assert result.trap is None
    assert result.exit_code == 0
    for engine in ("interp", "compiled"):
        assert compile_source(source).run(engine=engine).exit_code == 0
