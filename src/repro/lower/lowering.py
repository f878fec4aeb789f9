"""Lowering: typed AST → register IR.

Follows the paper's assumed compilation model (Section 3.1): the C code
is translated "into a generic intermediate form that contains only simple
operations, uses explicit indexing and memory access operations, and
provides the abstraction of an unbounded number of non-memory
intermediate values".

Every local variable initially receives a stack ``alloca``; the mem2reg
pass (:mod:`repro.opt.mem2reg`) later promotes non-address-taken scalars
to registers, playing the role the paper assigns to LLVM's register
promotion — minimizing the number of genuine memory operations that
SoftBound must instrument.

Struct-field address computations are emitted as :class:`Gep`
instructions tagged with the field's extent, which is where SoftBound's
sub-object bound shrinking hooks in.
"""

import struct

from ..frontend import ast_nodes as ast
from ..frontend import ctypes_ as ct
from ..ir import instructions as ins
from ..ir.irtypes import F64, I8, I32, I64, PTR, VOID, from_ctype, int_type
from ..ir.module import Function, GlobalVar, Module, Param
from ..ir.values import Const, Register, SymbolRef, const_float, const_int


class LoweringError(Exception):
    pass


class _LocalSlot:
    """A local variable: the register holding its alloca address."""

    def __init__(self, addr_reg, ctype):
        self.addr = addr_reg
        self.ctype = ctype


class Lowerer:
    def __init__(self, program):
        self.program = program  # TypedProgram
        self.module = Module()
        self.func = None
        self.block = None
        self.locals = None  # name -> _LocalSlot (scoped via list of dicts)
        self.break_targets = []
        self.continue_targets = []
        self.goto_blocks = {}
        self.static_count = 0
        # Source line of the statement currently being lowered; _emit
        # stamps it onto every instruction (obs profiler attribution).
        self._cur_line = 0

    # -- top level -------------------------------------------------------

    def lower(self):
        for name, decl in self.program.globals.items():
            self._lower_global(decl)
        for name, funcdef in self.program.functions.items():
            self._lower_function(funcdef)
        return self.module

    # -- globals -----------------------------------------------------------

    def _lower_global(self, decl):
        size = max(decl.type.size, 1)
        data = bytearray(size)
        relocs = []
        if decl.init is not None:
            self._fill_init(data, relocs, 0, decl.type, decl.init)
        self.module.add_global(
            GlobalVar(
                name=decl.name,
                ctype=decl.type,
                data=bytes(data),
                relocs=relocs,
                align=max(decl.type.align, 1),
            )
        )

    def _fill_init(self, data, relocs, offset, ctype, init):
        """Write a constant initializer into a global's byte image."""
        if isinstance(init, ast.InitList):
            if ctype.is_array:
                for i, item in enumerate(init.items):
                    self._fill_init(data, relocs, offset + i * ctype.element.size, ctype.element, item)
            elif ctype.is_struct:
                for item, fld in zip(init.items, ctype.fields):
                    self._fill_init(data, relocs, offset + fld.offset, fld.type, item)
            else:
                self._fill_init(data, relocs, offset, ctype, init.items[0])
            return
        if isinstance(init, ast.StringLiteral) and ctype.is_array:
            raw = init.value + b"\x00"
            data[offset : offset + len(raw)] = raw
            return
        value = self._const_value(init)
        if isinstance(value, _Reloc):
            relocs.append((offset, value.symbol, value.addend))
            return
        if ctype.is_float:
            data[offset : offset + 8] = struct.pack("<d", float(value))
        else:
            width = ctype.size if ctype.is_integer else 8
            data[offset : offset + width] = int(value).to_bytes(width, "little", signed=False) \
                if value >= 0 else (value + (1 << (width * 8))).to_bytes(width, "little")

    def _const_value(self, expr):
        """Evaluate a constant initializer expression.

        Returns an int/float, or a :class:`_Reloc` for address constants.
        """
        if isinstance(expr, (ast.IntLiteral, ast.CharLiteral)):
            return expr.value
        if isinstance(expr, ast.FloatLiteral):
            return expr.value
        if isinstance(expr, ast.StringLiteral):
            name = self.module.intern_string(expr.value)
            return _Reloc(name, 0)
        if isinstance(expr, ast.SizeofType):
            return expr.target_type.size
        if isinstance(expr, ast.Identifier):
            if expr.binding == "enum_const":
                return expr.enum_value
            if expr.binding == "function":
                return _Reloc(expr.name, 0)
            raise LoweringError(f"non-constant global initializer: {expr.name}")
        if isinstance(expr, ast.ImplicitConvert):
            if expr.kind in ("decay", "fndecay") and isinstance(expr.operand, ast.Identifier):
                return _Reloc(expr.operand.name, 0)
            if expr.kind in ("decay",) and isinstance(expr.operand, ast.StringLiteral):
                name = self.module.intern_string(expr.operand.value)
                return _Reloc(name, 0)
            return self._const_value(expr.operand)
        if isinstance(expr, ast.Unary):
            if expr.op == "&" and isinstance(expr.operand, ast.Identifier):
                return _Reloc(expr.operand.name, 0)
            if expr.op == "&" and isinstance(expr.operand, ast.Index):
                base = expr.operand.base
                inner = base.operand if isinstance(base, ast.ImplicitConvert) else base
                if isinstance(inner, ast.Identifier) and isinstance(expr.operand.index, ast.IntLiteral):
                    elem = base.ctype.pointee if base.ctype.is_pointer else base.ctype.element
                    return _Reloc(inner.name, expr.operand.index.value * elem.size)
            value = self._const_value(expr.operand)
            if expr.op == "-":
                return -value
            if expr.op == "~":
                return ~value
            raise LoweringError(f"non-constant initializer unary {expr.op}")
        if isinstance(expr, ast.Binary):
            left = self._const_value(expr.left)
            right = self._const_value(expr.right)
            table = {
                "+": lambda a, b: a + b,
                "-": lambda a, b: a - b,
                "*": lambda a, b: a * b,
                "/": lambda a, b: a // b,
                "<<": lambda a, b: a << b,
                ">>": lambda a, b: a >> b,
                "|": lambda a, b: a | b,
                "&": lambda a, b: a & b,
                "^": lambda a, b: a ^ b,
            }
            if expr.op in table and not isinstance(left, _Reloc) and not isinstance(right, _Reloc):
                return table[expr.op](left, right)
            raise LoweringError(f"non-constant initializer binary {expr.op}")
        if isinstance(expr, ast.Cast):
            return self._const_value(expr.operand)
        raise LoweringError(f"unsupported global initializer {type(expr).__name__}")

    # -- functions -----------------------------------------------------------

    def _lower_function(self, funcdef):
        irfunc = Function(
            funcdef.name,
            return_irtype=from_ctype(funcdef.return_type) if not funcdef.return_type.is_void else VOID,
            return_ctype=funcdef.return_type,
            varargs=funcdef.varargs,
        )
        self.module.add_function(irfunc)
        self.func = irfunc
        self.locals = [{}]
        self._cur_line = getattr(funcdef, "line", 0)
        self.goto_blocks = {}
        self.block = irfunc.new_block("entry")

        # Parameters: spill each into an alloca so that & works uniformly;
        # mem2reg re-promotes the ones whose address is never taken.
        for pdecl in funcdef.params:
            preg = irfunc.new_reg(from_ctype(pdecl.type), pdecl.name)
            irfunc.params.append(Param(register=preg, ctype=pdecl.type, name=pdecl.name))
            slot = self._alloca(pdecl.type, pdecl.name, is_param=True)
            self._emit(ins.Store(value=preg, addr=slot.addr, type=from_ctype(pdecl.type),
                                 is_pointer_value=pdecl.type.is_pointer))
            self.locals[-1][pdecl.name] = slot

        self._lower_block(funcdef.body)

        # Implicit return for void functions / fall-off-the-end.
        if self.block.terminator is None:
            if funcdef.return_type.is_void:
                self._emit(ins.Ret())
            else:
                self._emit(ins.Ret(value=const_int(0, irfunc.return_type)
                                   if irfunc.return_type.is_int or irfunc.return_type.is_ptr
                                   else const_float(0.0)))
        # Any empty goto-created blocks get explicit unreachables.
        for block in irfunc.blocks:
            if not block.instructions:
                block.append(ins.Unreachable())
            elif block.terminator is None:
                block.append(ins.Unreachable())
        self.func = None

    # -- helpers -----------------------------------------------------------

    def _emit(self, instruction):
        if self._cur_line:
            instruction.src_line = self._cur_line
        self.block.append(instruction)
        return instruction

    def _alloca(self, ctype, name, is_param=False):
        reg = self.func.new_reg(PTR, name + ".addr")
        # Allocas belong at the top of the entry block so frame layout is
        # static; emitting in the current block is fine because the
        # interpreter performs frame layout by scanning all allocas.
        self._emit(ins.Alloca(dst=reg, size=max(ctype.size, 1), align=max(ctype.align, 1),
                              ctype=ctype, name=name, is_param=is_param))
        return _LocalSlot(reg, ctype)

    def _lookup_local(self, name):
        for scope in reversed(self.locals):
            if name in scope:
                return scope[name]
        return None

    def _new_block(self, hint):
        return self.func.new_block(hint)

    def _set_block(self, block):
        self.block = block

    # -- statements ----------------------------------------------------------

    def _lower_block(self, block):
        self.locals.append({})
        for item in block.items:
            if isinstance(item, ast.Decl):
                self._lower_local_decl(item)
            else:
                self._lower_stmt(item)
        self.locals.pop()

    def _lower_local_decl(self, decl):
        if getattr(decl, "line", 0):
            self._cur_line = decl.line
        if decl.storage == "static":
            # Function-scope statics become module globals with a
            # uniquified name.
            gname = f"{self.func.name}.{decl.name}.{self.static_count}"
            self.static_count += 1
            size = max(decl.type.size, 1)
            data = bytearray(size)
            relocs = []
            if decl.init is not None:
                self._fill_init(data, relocs, 0, decl.type, decl.init)
            self.module.add_global(GlobalVar(name=gname, ctype=decl.type, data=bytes(data),
                                             relocs=relocs, align=max(decl.type.align, 1)))
            slot = _LocalSlot(None, decl.type)
            slot.global_name = gname
            self.locals[-1][decl.name] = slot
            return
        slot = self._alloca(decl.type, decl.name)
        self.locals[-1][decl.name] = slot
        if decl.init is not None:
            self._lower_local_init(slot.addr, decl.type, decl.init)

    def _lower_local_init(self, addr, ctype, init):
        if isinstance(init, ast.InitList):
            # Zero-fill first so partial initializer lists behave like C.
            self._emit(ins.Call(dst=None, callee="memset",
                                args=[addr, const_int(0, I32), const_int(ctype.size, I64)],
                                arg_ctypes=[ct.VOID_PTR, ct.INT, ct.LONG], ret_ctype=ct.VOID))
            if ctype.is_array:
                for i, item in enumerate(init.items):
                    sub = self.func.new_reg(PTR)
                    self._emit(ins.Gep(dst=sub, base=addr,
                                       offset=const_int(i * ctype.element.size, I64)))
                    self._lower_local_init(sub, ctype.element, item)
            elif ctype.is_struct:
                for item, fld in zip(init.items, ctype.fields):
                    sub = self.func.new_reg(PTR)
                    self._emit(ins.Gep(dst=sub, base=addr, offset=const_int(fld.offset, I64),
                                       field_extent=fld.type.size))
                    self._lower_local_init(sub, fld.type, item)
            else:
                self._lower_local_init(addr, ctype, init.items[0])
            return
        if isinstance(init, ast.StringLiteral) and ctype.is_array:
            name = self.module.intern_string(init.value)
            self._emit(ins.Call(dst=None, callee="memcpy",
                                args=[addr, SymbolRef(name), const_int(len(init.value) + 1, I64)],
                                arg_ctypes=[ct.VOID_PTR, ct.VOID_PTR, ct.LONG], ret_ctype=ct.VOID_PTR))
            return
        if ctype.is_struct:
            src_addr, _ = self._lower_lvalue_or_value(init)
            self._emit(ins.MemCopy(dst_addr=addr, src_addr=src_addr, size=ctype.size, ctype=ctype))
            return
        value = self._lower_expr(init)
        value = self._convert(value, init.ctype, ctype)
        self._emit(ins.Store(value=value, addr=addr, type=from_ctype(ctype),
                             is_pointer_value=ctype.is_pointer))

    def _lower_stmt(self, stmt):
        handler = getattr(self, "_stmt_" + type(stmt).__name__, None)
        if handler is None:
            raise LoweringError(f"unhandled statement {type(stmt).__name__}")
        if getattr(stmt, "line", 0):
            self._cur_line = stmt.line
        handler(stmt)

    def _stmt_Block(self, stmt):
        self._lower_block(stmt)

    def _stmt_ExprStmt(self, stmt):
        if stmt.expr is not None:
            self._lower_expr(stmt.expr)

    def _stmt_If(self, stmt):
        then_block = self._new_block("if.then")
        end_block = self._new_block("if.end")
        else_block = self._new_block("if.else") if stmt.otherwise else end_block
        self._lower_cond_branch(stmt.cond, then_block, else_block)
        self._set_block(then_block)
        self._lower_stmt(stmt.then)
        self._branch_to_label(end_block)
        if stmt.otherwise:
            self._set_block(else_block)
            self._lower_stmt(stmt.otherwise)
            self._branch_to_label(end_block)
        self._set_block(end_block)

    def _branch_to_label(self, block):
        if self.block.terminator is None:
            self._emit(ins.Br(label=block.label))

    def _stmt_While(self, stmt):
        cond_block = self._new_block("while.cond")
        body_block = self._new_block("while.body")
        end_block = self._new_block("while.end")
        self._branch_to_label(cond_block)
        self._set_block(cond_block)
        self._lower_cond_branch(stmt.cond, body_block, end_block)
        self._set_block(body_block)
        self.break_targets.append(end_block)
        self.continue_targets.append(cond_block)
        self._lower_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        self._branch_to_label(cond_block)
        self._set_block(end_block)

    def _stmt_DoWhile(self, stmt):
        body_block = self._new_block("do.body")
        cond_block = self._new_block("do.cond")
        end_block = self._new_block("do.end")
        self._branch_to_label(body_block)
        self._set_block(body_block)
        self.break_targets.append(end_block)
        self.continue_targets.append(cond_block)
        self._lower_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        self._branch_to_label(cond_block)
        self._set_block(cond_block)
        self._lower_cond_branch(stmt.cond, body_block, end_block)
        self._set_block(end_block)

    def _stmt_For(self, stmt):
        self.locals.append({})
        if isinstance(stmt.init, list):
            for decl in stmt.init:
                self._lower_local_decl(decl)
        elif stmt.init is not None:
            self._lower_expr(stmt.init)
        cond_block = self._new_block("for.cond")
        body_block = self._new_block("for.body")
        step_block = self._new_block("for.step")
        end_block = self._new_block("for.end")
        self._branch_to_label(cond_block)
        self._set_block(cond_block)
        if stmt.cond is not None:
            self._lower_cond_branch(stmt.cond, body_block, end_block)
        else:
            self._emit(ins.Br(label=body_block.label))
        self._set_block(body_block)
        self.break_targets.append(end_block)
        self.continue_targets.append(step_block)
        self._lower_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        self._branch_to_label(step_block)
        self._set_block(step_block)
        if stmt.step is not None:
            self._lower_expr(stmt.step)
        self._branch_to_label(cond_block)
        self._set_block(end_block)
        self.locals.pop()

    def _stmt_Return(self, stmt):
        if stmt.value is None:
            self._emit(ins.Ret())
        else:
            value = self._lower_expr(stmt.value)
            value = self._convert(value, stmt.value.ctype, self.func.return_ctype)
            self._emit(ins.Ret(value=value))
        # Subsequent code in this block is dead; give it a scratch block.
        self._set_block(self._new_block("dead"))

    def _stmt_Break(self, stmt):
        if not self.break_targets:
            raise LoweringError("break outside loop/switch")
        self._emit(ins.Br(label=self.break_targets[-1].label))
        self._set_block(self._new_block("dead"))

    def _stmt_Continue(self, stmt):
        if not self.continue_targets:
            raise LoweringError("continue outside loop")
        self._emit(ins.Br(label=self.continue_targets[-1].label))
        self._set_block(self._new_block("dead"))

    def _stmt_Switch(self, stmt):
        value = self._lower_expr(stmt.cond)
        end_block = self._new_block("switch.end")
        cases = stmt.body.items
        case_blocks = [self._new_block(f"case{i}") for i in range(len(cases))]
        default_block = end_block
        # Dispatch chain.
        for i, case in enumerate(cases):
            if case.value is None:
                default_block = case_blocks[i]
        for i, case in enumerate(cases):
            if case.value is None:
                continue
            const = self._case_const(case.value)
            cmp_reg = self.func.new_reg(I32)
            self._emit(ins.Cmp(dst=cmp_reg, pred="eq", a=value,
                               b=const_int(const, value.type if hasattr(value, 'type') else I64)))
            next_test = self._new_block(f"switch.test{i}")
            self._emit(ins.CBr(cond=cmp_reg, true_label=case_blocks[i].label,
                               false_label=next_test.label))
            self._set_block(next_test)
        self._emit(ins.Br(label=default_block.label))
        # Case bodies with fallthrough.
        self.break_targets.append(end_block)
        for i, case in enumerate(cases):
            self._set_block(case_blocks[i])
            for sub in case.stmts:
                self._lower_stmt(sub)
            next_block = case_blocks[i + 1] if i + 1 < len(cases) else end_block
            self._branch_to_label(next_block)
        self.break_targets.pop()
        self._set_block(end_block)

    def _case_const(self, expr):
        if isinstance(expr, (ast.IntLiteral, ast.CharLiteral)):
            return expr.value
        if isinstance(expr, ast.Identifier) and expr.binding == "enum_const":
            return expr.enum_value
        if isinstance(expr, ast.Unary) and expr.op == "-":
            return -self._case_const(expr.operand)
        raise LoweringError("case label must be an integer constant")

    def _stmt_Goto(self, stmt):
        block = self._goto_block(stmt.label)
        self._emit(ins.Br(label=block.label))
        self._set_block(self._new_block("dead"))

    def _stmt_Label(self, stmt):
        block = self._goto_block(stmt.name)
        self._branch_to_label(block)
        self._set_block(block)
        self._lower_stmt(stmt.stmt)

    def _goto_block(self, name):
        if name not in self.goto_blocks:
            self.goto_blocks[name] = self._new_block(f"label.{name}")
        return self.goto_blocks[name]

    # -- conditions ------------------------------------------------------------

    def _lower_cond_branch(self, cond, true_block, false_block):
        """Lower a condition with short-circuiting directly into branches."""
        if isinstance(cond, ast.Binary) and cond.op == "&&":
            mid = self._new_block("and.rhs")
            self._lower_cond_branch(cond.left, mid, false_block)
            self._set_block(mid)
            self._lower_cond_branch(cond.right, true_block, false_block)
            return
        if isinstance(cond, ast.Binary) and cond.op == "||":
            mid = self._new_block("or.rhs")
            self._lower_cond_branch(cond.left, true_block, mid)
            self._set_block(mid)
            self._lower_cond_branch(cond.right, true_block, false_block)
            return
        if isinstance(cond, ast.Unary) and cond.op == "!":
            self._lower_cond_branch(cond.operand, false_block, true_block)
            return
        value = self._lower_expr(cond)
        flag = self._truthiness(value, cond.ctype)
        self._emit(ins.CBr(cond=flag, true_label=true_block.label, false_label=false_block.label))

    def _truthiness(self, value, ctype):
        reg = self.func.new_reg(I32, "tobool")
        if ctype.is_float:
            self._emit(ins.Cmp(dst=reg, pred="fne", a=value, b=const_float(0.0)))
        else:
            self._emit(ins.Cmp(dst=reg, pred="ne", a=value, b=const_int(0, value.type if isinstance(value, Register) else from_ctype(ctype))))
        return reg

    # -- expressions ---------------------------------------------------------------

    def _lower_expr(self, expr):
        handler = getattr(self, "_expr_" + type(expr).__name__, None)
        if handler is None:
            raise LoweringError(f"unhandled expression {type(expr).__name__}")
        return handler(expr)

    def _lower_lvalue(self, expr):
        """Lower an lvalue to its address.  Returns (addr_value, ctype)."""
        if isinstance(expr, ast.Identifier):
            slot = self._lookup_local(expr.name)
            if slot is not None:
                if slot.addr is None:  # local static
                    return SymbolRef(slot.global_name), slot.ctype
                return slot.addr, slot.ctype
            if expr.binding == "global":
                return SymbolRef(expr.name), expr.ctype
            if expr.binding == "function":
                return SymbolRef(expr.name), expr.ctype
            raise LoweringError(f"cannot take address of {expr.name}")
        if isinstance(expr, ast.Unary) and expr.op == "*":
            value = self._lower_expr(expr.operand)
            return value, expr.ctype
        if isinstance(expr, ast.Index):
            base = self._lower_expr(expr.base)
            index = self._lower_expr(expr.index)
            index = self._convert(index, expr.index.ctype, ct.LONG)
            elem = expr.base.ctype.pointee
            offset = self.func.new_reg(I64)
            self._emit(ins.BinOp(dst=offset, op="mul", a=index, b=const_int(elem.size, I64)))
            addr = self.func.new_reg(PTR)
            self._emit(ins.Gep(dst=addr, base=base, offset=offset))
            return addr, elem
        if isinstance(expr, ast.Member):
            if expr.arrow:
                base_addr = self._lower_expr(expr.base)
            else:
                base_addr, _ = self._lower_lvalue(expr.base)
            addr = self.func.new_reg(PTR, expr.name)
            self._emit(ins.Gep(dst=addr, base=base_addr,
                               offset=const_int(expr.field_offset, I64),
                               field_extent=expr.field_size))
            return addr, expr.ctype
        if isinstance(expr, ast.StringLiteral):
            name = self.module.intern_string(expr.value)
            return SymbolRef(name), expr.ctype
        if isinstance(expr, ast.ImplicitConvert) and expr.kind == "decay":
            return self._lower_lvalue(expr.operand)
        raise LoweringError(f"not an lvalue: {type(expr).__name__}")

    def _lower_lvalue_or_value(self, expr):
        """For struct rvalues (call results are unsupported): the address."""
        return self._lower_lvalue(expr)

    def _load_lvalue(self, addr, ctype):
        if ctype.is_array:
            return addr  # arrays decay to their address
        if ctype.is_struct:
            return addr  # struct values are manipulated by address
        if ctype.is_function:
            return addr
        reg = self.func.new_reg(from_ctype(ctype))
        self._emit(ins.Load(dst=reg, addr=addr, type=from_ctype(ctype),
                            is_pointer_value=ctype.is_pointer))
        return reg

    # Literals.

    def _expr_IntLiteral(self, expr):
        return const_int(expr.ctype.wrap(expr.value), from_ctype(expr.ctype))

    def _expr_CharLiteral(self, expr):
        return const_int(expr.value, I32)

    def _expr_FloatLiteral(self, expr):
        return const_float(expr.value)

    def _expr_StringLiteral(self, expr):
        name = self.module.intern_string(expr.value)
        return SymbolRef(name)

    def _expr_Identifier(self, expr):
        if expr.binding == "enum_const":
            return const_int(expr.enum_value, I32)
        if expr.binding == "function":
            return SymbolRef(expr.name)
        addr, ctype = self._lower_lvalue(expr)
        return self._load_lvalue(addr, ctype)

    def _expr_ImplicitConvert(self, expr):
        if expr.kind == "decay":
            addr, _ = self._lower_lvalue(expr.operand)
            return addr
        if expr.kind == "fndecay":
            if isinstance(expr.operand, ast.Identifier):
                return SymbolRef(expr.operand.name)
            return self._lower_expr(expr.operand)
        return self._lower_expr(expr.operand)

    def _expr_Unary(self, expr):
        op = expr.op
        if op == "&":
            addr, _ = self._lower_lvalue(expr.operand)
            return addr
        if op == "*":
            addr = self._lower_expr(expr.operand)
            return self._load_lvalue(addr, expr.ctype)
        if op in ("++pre", "--pre", "post++", "post--"):
            return self._lower_incdec(expr)
        value = self._lower_expr(expr.operand)
        if op == "-":
            dst = self.func.new_reg(from_ctype(expr.ctype))
            if expr.ctype.is_float:
                self._emit(ins.BinOp(dst=dst, op="fsub", a=const_float(0.0), b=value))
            else:
                value = self._convert(value, expr.operand.ctype, expr.ctype)
                self._emit(ins.BinOp(dst=dst, op="sub", a=const_int(0, from_ctype(expr.ctype)), b=value))
            return dst
        if op == "~":
            value = self._convert(value, expr.operand.ctype, expr.ctype)
            dst = self.func.new_reg(from_ctype(expr.ctype))
            self._emit(ins.BinOp(dst=dst, op="xor", a=value, b=const_int(-1, from_ctype(expr.ctype))))
            return dst
        if op == "!":
            flag = self._truthiness(value, expr.operand.ctype)
            dst = self.func.new_reg(I32)
            self._emit(ins.BinOp(dst=dst, op="xor", a=flag, b=const_int(1, I32)))
            return dst
        raise LoweringError(f"unhandled unary {op}")

    def _lower_incdec(self, expr):
        addr, ctype = self._lower_lvalue(expr.operand)
        old = self._load_lvalue(addr, ctype)
        delta = 1
        if ctype.is_pointer:
            new = self.func.new_reg(PTR)
            step = ctype.pointee.size
            offset = const_int(step if "++" in expr.op else -step, I64)
            self._emit(ins.Gep(dst=new, base=old, offset=offset))
        elif ctype.is_float:
            new = self.func.new_reg(F64)
            op = "fadd" if "++" in expr.op else "fsub"
            self._emit(ins.BinOp(dst=new, op=op, a=old, b=const_float(1.0)))
        else:
            new = self.func.new_reg(from_ctype(ctype))
            op = "add" if "++" in expr.op else "sub"
            self._emit(ins.BinOp(dst=new, op=op, a=old, b=const_int(1, from_ctype(ctype))))
        self._emit(ins.Store(value=new, addr=addr, type=from_ctype(ctype),
                             is_pointer_value=ctype.is_pointer))
        return old if expr.op.startswith("post") else new

    def _expr_Binary(self, expr):
        op = expr.op
        if op == ",":
            self._lower_expr(expr.left)
            return self._lower_expr(expr.right)
        if op in ("&&", "||"):
            return self._lower_logical(expr)
        left = self._lower_expr(expr.left)
        right = self._lower_expr(expr.right)
        lt, rt = expr.left.ctype, expr.right.ctype

        if op in ("==", "!=", "<", "<=", ">", ">="):
            return self._lower_comparison(expr, left, right, lt, rt)

        # Pointer arithmetic lowers to GEP (paper: "the resulting pointer
        # inherits the base and bound of the original pointer").
        if lt.is_pointer and rt.is_integer and op in ("+", "-"):
            index = self._convert(right, rt, ct.LONG)
            scaled = self.func.new_reg(I64)
            self._emit(ins.BinOp(dst=scaled, op="mul", a=index,
                                 b=const_int(lt.pointee.size, I64)))
            if op == "-":
                negated = self.func.new_reg(I64)
                self._emit(ins.BinOp(dst=negated, op="sub", a=const_int(0, I64), b=scaled))
                scaled = negated
            dst = self.func.new_reg(PTR)
            self._emit(ins.Gep(dst=dst, base=left, offset=scaled))
            return dst
        if rt.is_pointer and lt.is_integer and op == "+":
            index = self._convert(left, lt, ct.LONG)
            scaled = self.func.new_reg(I64)
            self._emit(ins.BinOp(dst=scaled, op="mul", a=index,
                                 b=const_int(rt.pointee.size, I64)))
            dst = self.func.new_reg(PTR)
            self._emit(ins.Gep(dst=dst, base=right, offset=scaled))
            return dst
        if lt.is_pointer and rt.is_pointer and op == "-":
            li = self.func.new_reg(I64)
            self._emit(ins.Cast(dst=li, kind="ptrtoint", src=left))
            ri = self.func.new_reg(I64)
            self._emit(ins.Cast(dst=ri, kind="ptrtoint", src=right))
            diff = self.func.new_reg(I64)
            self._emit(ins.BinOp(dst=diff, op="sub", a=li, b=ri))
            result = self.func.new_reg(I64)
            self._emit(ins.BinOp(dst=result, op="sdiv", a=diff,
                                 b=const_int(max(lt.pointee.size, 1), I64)))
            return result

        # Plain arithmetic with usual conversions.
        result_type = expr.ctype
        left = self._convert(left, lt, result_type)
        right = self._convert(right, rt, result_type)
        dst = self.func.new_reg(from_ctype(result_type))
        self._emit(ins.BinOp(dst=dst, op=self._arith_opcode(op, result_type), a=left, b=right))
        return dst

    def _arith_opcode(self, op, ctype):
        if ctype.is_float:
            return {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}[op]
        signed = ctype.signed if ctype.is_integer else True
        table = {
            "+": "add",
            "-": "sub",
            "*": "mul",
            "/": "sdiv" if signed else "udiv",
            "%": "srem" if signed else "urem",
            "&": "and",
            "|": "or",
            "^": "xor",
            "<<": "shl",
            ">>": "ashr" if signed else "lshr",
        }
        return table[op]

    def _lower_comparison(self, expr, left, right, lt, rt):
        dst = self.func.new_reg(I32)
        if lt.is_float or rt.is_float:
            left = self._convert(left, lt, ct.DOUBLE)
            right = self._convert(right, rt, ct.DOUBLE)
            pred = {"==": "feq", "!=": "fne", "<": "flt", "<=": "fle", ">": "fgt", ">=": "fge"}[expr.op]
        elif lt.is_pointer or rt.is_pointer:
            pred = {"==": "eq", "!=": "ne", "<": "ult", "<=": "ule", ">": "ugt", ">=": "uge"}[expr.op]
        else:
            common = ct.common_arith_type(lt, rt)
            left = self._convert(left, lt, common)
            right = self._convert(right, rt, common)
            if common.signed:
                pred = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle", ">": "sgt", ">=": "sge"}[expr.op]
            else:
                pred = {"==": "eq", "!=": "ne", "<": "ult", "<=": "ule", ">": "ugt", ">=": "uge"}[expr.op]
        self._emit(ins.Cmp(dst=dst, pred=pred, a=left, b=right))
        return dst

    def _lower_logical(self, expr):
        result = self.func.new_reg(I32, "logical")
        true_block = self._new_block("log.true")
        false_block = self._new_block("log.false")
        end_block = self._new_block("log.end")
        self._lower_cond_branch(expr, true_block, false_block)
        self._set_block(true_block)
        self._emit(ins.Mov(dst=result, src=const_int(1, I32)))
        self._emit(ins.Br(label=end_block.label))
        self._set_block(false_block)
        self._emit(ins.Mov(dst=result, src=const_int(0, I32)))
        self._emit(ins.Br(label=end_block.label))
        self._set_block(end_block)
        return result

    def _expr_Assign(self, expr):
        if expr.op == "=":
            if expr.target.ctype.is_struct:
                dst_addr, _ = self._lower_lvalue(expr.target)
                src_addr, _ = self._lower_lvalue_or_value(expr.value)
                self._emit(ins.MemCopy(dst_addr=dst_addr, src_addr=src_addr,
                                       size=expr.target.ctype.size, ctype=expr.target.ctype))
                return dst_addr
            value = self._lower_expr(expr.value)
            value = self._convert(value, expr.value.ctype, expr.target.ctype)
            addr, ctype = self._lower_lvalue(expr.target)
            self._emit(ins.Store(value=value, addr=addr, type=from_ctype(ctype),
                                 is_pointer_value=ctype.is_pointer))
            return value
        # Compound assignment: load-modify-store.
        addr, ctype = self._lower_lvalue(expr.target)
        old = self._load_lvalue(addr, ctype)
        rhs = self._lower_expr(expr.value)
        base_op = expr.op[:-1]
        if ctype.is_pointer:
            index = self._convert(rhs, expr.value.ctype, ct.LONG)
            scaled = self.func.new_reg(I64)
            self._emit(ins.BinOp(dst=scaled, op="mul", a=index,
                                 b=const_int(ctype.pointee.size, I64)))
            if base_op == "-":
                neg = self.func.new_reg(I64)
                self._emit(ins.BinOp(dst=neg, op="sub", a=const_int(0, I64), b=scaled))
                scaled = neg
            new = self.func.new_reg(PTR)
            self._emit(ins.Gep(dst=new, base=old, offset=scaled))
        else:
            compute_type = ct.common_arith_type(ctype, expr.value.ctype) \
                if ctype.is_arith and expr.value.ctype.is_arith else ctype
            a = self._convert(old, ctype, compute_type)
            b = self._convert(rhs, expr.value.ctype, compute_type)
            tmp = self.func.new_reg(from_ctype(compute_type))
            self._emit(ins.BinOp(dst=tmp, op=self._arith_opcode(base_op, compute_type), a=a, b=b))
            new = self._convert(tmp, compute_type, ctype)
        self._emit(ins.Store(value=new, addr=addr, type=from_ctype(ctype),
                             is_pointer_value=ctype.is_pointer))
        return new

    def _expr_Conditional(self, expr):
        result = self.func.new_reg(from_ctype(expr.ctype), "cond")
        then_block = self._new_block("cond.then")
        else_block = self._new_block("cond.else")
        end_block = self._new_block("cond.end")
        self._lower_cond_branch(expr.cond, then_block, else_block)
        self._set_block(then_block)
        tval = self._lower_expr(expr.then)
        tval = self._convert(tval, expr.then.ctype, expr.ctype)
        self._emit(ins.Mov(dst=result, src=tval))
        self._emit(ins.Br(label=end_block.label))
        self._set_block(else_block)
        fval = self._lower_expr(expr.otherwise)
        fval = self._convert(fval, expr.otherwise.ctype, expr.ctype)
        self._emit(ins.Mov(dst=result, src=fval))
        self._emit(ins.Br(label=end_block.label))
        self._set_block(end_block)
        return result

    def _expr_Cast(self, expr):
        value = self._lower_expr(expr.operand)
        return self._convert(value, expr.operand.ctype, expr.ctype)

    def _expr_SizeofType(self, expr):
        return const_int(expr.target_type.size, I64)

    def _expr_SizeofExpr(self, expr):
        return const_int(expr.operand.ctype.size, I64)

    def _expr_Index(self, expr):
        addr, ctype = self._lower_lvalue(expr)
        return self._load_lvalue(addr, ctype)

    def _expr_Member(self, expr):
        addr, ctype = self._lower_lvalue(expr)
        return self._load_lvalue(addr, ctype)

    def _expr_Call(self, expr):
        func_expr = expr.func
        callee = None
        callee_reg = None
        if isinstance(func_expr, ast.Identifier) and func_expr.binding == "function":
            callee = func_expr.name
        else:
            callee_reg = self._lower_expr(func_expr)
        args = []
        arg_ctypes = []
        for arg in expr.args:
            value = self._lower_expr(arg)
            args.append(value)
            arg_ctypes.append(arg.ctype)
        ret_ctype = expr.ctype
        dst = None
        if ret_ctype is not None and not ret_ctype.is_void:
            dst = self.func.new_reg(from_ctype(ret_ctype))
        self._emit(ins.Call(dst=dst, callee=callee, callee_reg=callee_reg,
                            args=args, arg_ctypes=arg_ctypes, ret_ctype=ret_ctype))
        return dst

    # -- conversions -----------------------------------------------------------------

    def _convert(self, value, from_type, to_type):
        """Emit conversion instructions between C types as needed."""
        if from_type is None or to_type is None or from_type == to_type:
            return value
        src_ir = from_ctype(from_type) if not from_type.is_void else I64
        dst_ir = from_ctype(to_type) if not to_type.is_void else I64
        # Pointer-ish source types (arrays decay before this point).
        if src_ir.is_ptr and dst_ir.is_ptr:
            return value  # all pointer casts are representation-free
        if src_ir.is_ptr and dst_ir.is_int:
            dst = self.func.new_reg(I64)
            self._emit(ins.Cast(dst=dst, kind="ptrtoint", src=value))
            return self._int_resize(dst, ct.LONG, to_type)
        if src_ir.is_int and dst_ir.is_ptr:
            widened = self._int_resize(value, from_type, ct.LONG)
            dst = self.func.new_reg(PTR)
            self._emit(ins.Cast(dst=dst, kind="inttoptr", src=widened))
            return dst
        if src_ir.is_float and dst_ir.is_float:
            return value
        if src_ir.is_int and dst_ir.is_float:
            dst = self.func.new_reg(F64)
            kind = "sitofp" if from_type.signed else "uitofp"
            self._emit(ins.Cast(dst=dst, kind=kind, src=value))
            return dst
        if src_ir.is_float and dst_ir.is_int:
            dst = self.func.new_reg(dst_ir)
            kind = "fptosi" if to_type.signed else "fptoui"
            self._emit(ins.Cast(dst=dst, kind=kind, src=value))
            return dst
        if src_ir.is_int and dst_ir.is_int:
            return self._int_resize(value, from_type, to_type)
        raise LoweringError(f"cannot convert {from_type} to {to_type}")

    def _int_resize(self, value, from_type, to_type):
        if from_type.width == to_type.width:
            if from_type.signed == to_type.signed:
                return value
            # Same width, signedness flip: reinterpret bits.
            dst = self.func.new_reg(from_ctype(to_type))
            kind = "zext" if not to_type.signed else "sext"
            self._emit(ins.Cast(dst=dst, kind="bitcast", src=value))
            return dst
        dst = self.func.new_reg(from_ctype(to_type))
        if to_type.width < from_type.width:
            self._emit(ins.Cast(dst=dst, kind="trunc", src=value))
        else:
            kind = "sext" if from_type.signed else "zext"
            self._emit(ins.Cast(dst=dst, kind=kind, src=value))
        return dst


class _Reloc:
    def __init__(self, symbol, addend):
        self.symbol = symbol
        self.addend = addend


def lower(program):
    """Lower a TypedProgram to an IR Module."""
    return Lowerer(program).lower()
