"""Human-readable IR printing, for debugging and golden tests."""

from . import instructions as ins


def format_value(value):
    return str(value) if value is not None else "<none>"


def format_instruction(instr):
    o = instr.opcode
    if o == "alloca":
        return f"{instr.dst} = alloca {instr.size} ; {instr.name}"
    if o == "load":
        tag = " !ptr" if instr.is_pointer_value else ""
        return f"{instr.dst} = load {instr.type}, {format_value(instr.addr)}{tag}"
    if o == "store":
        tag = " !ptr" if instr.is_pointer_value else ""
        return f"store {instr.type} {format_value(instr.value)}, {format_value(instr.addr)}{tag}"
    if o == "binop":
        return f"{instr.dst} = {instr.op} {format_value(instr.a)}, {format_value(instr.b)}"
    if o == "cmp":
        return f"{instr.dst} = cmp {instr.pred} {format_value(instr.a)}, {format_value(instr.b)}"
    if o == "gep":
        extent = f" !field({instr.field_extent})" if instr.field_extent is not None else ""
        return f"{instr.dst} = gep {format_value(instr.base)}, {format_value(instr.offset)}{extent}"
    if o == "cast":
        return f"{instr.dst} = {instr.kind} {format_value(instr.src)}"
    if o == "mov":
        return f"{instr.dst} = mov {format_value(instr.src)}"
    if o == "call":
        target = instr.callee if instr.callee else f"*{format_value(instr.callee_reg)}"
        args = ", ".join(format_value(a) for a in instr.args)
        prefix = f"{instr.dst} = " if instr.dst else ""
        return f"{prefix}call {target}({args})"
    if o == "ret":
        return f"ret {format_value(instr.value)}" if instr.value is not None else "ret"
    if o == "br":
        return f"br {instr.label}"
    if o == "cbr":
        return f"cbr {format_value(instr.cond)}, {instr.true_label}, {instr.false_label}"
    if o == "unreachable":
        return "unreachable"
    if o == "memcopy":
        return f"memcopy {format_value(instr.dst_addr)}, {format_value(instr.src_addr)}, {instr.size}"
    if o == "sb_check":
        tag = " !fnptr" if instr.is_fnptr_check else ""
        return (f"sb_check {instr.access_kind} {format_value(instr.ptr)} in "
                f"[{format_value(instr.base)}, {format_value(instr.bound)}) "
                f"size {format_value(instr.size)}{tag}")
    if o == "sb_temporal_check":
        return (f"sb_temporal_check {instr.access_kind} "
                f"{format_value(instr.ptr)} key {format_value(instr.key)} "
                f"lock {format_value(instr.lock)}")
    if o == "sb_meta_load":
        dsts = f"{instr.dst_base}, {instr.dst_bound}"
        if instr.dst_key is not None:
            dsts += f", {instr.dst_key}, {instr.dst_lock}"
        return f"{dsts} = sb_meta_load {format_value(instr.addr)}"
    if o == "sb_meta_store":
        vals = f"{format_value(instr.base)}, {format_value(instr.bound)}"
        if instr.key is not None:
            vals += f", {format_value(instr.key)}, {format_value(instr.lock)}"
        return f"sb_meta_store {format_value(instr.addr)}, {vals}"
    return f"<{o}>"


def format_function(func):
    params = ", ".join(f"{p.register}:{p.register.type}" for p in func.params)
    lines = [f"define {func.return_type} @{func.name}({params}){' varargs' if func.varargs else ''} {{"]
    for block in func.blocks:
        lines.append(f"{block.label}:")
        for instr in block.instructions:
            lines.append(f"  {format_instruction(instr)}")
    lines.append("}")
    return "\n".join(lines)


def format_module(module):
    parts = []
    for name, gvar in module.globals.items():
        kind = "str" if gvar.is_string_literal else "global"
        parts.append(f"@{name} = {kind} [{gvar.size} bytes]")
    for func in module.functions.values():
        parts.append(format_function(func))
    return "\n\n".join(parts)
