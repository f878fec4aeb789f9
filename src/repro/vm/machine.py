"""The interpreting virtual machine.

Executes IR modules over :class:`~repro.vm.memory.Memory` with a calling
convention designed so that spatial violations have *realistic
consequences* (DESIGN.md, "Attackable VM"):

* Every call frame materializes its saved frame pointer and return
  address as bytes in simulated stack memory, *above* the frame's local
  allocations (as on x86).  A buffer overflow in a stack array therefore
  really does overwrite the saved FP and return address, and the `ret`
  sequence really does read them back from memory — so smashed stacks
  genuinely hijack control.
* Function pointers are pseudo code addresses; indirect calls through a
  corrupted pointer transfer control to whatever function the attacker
  wrote there (or wild-jump trap).
* ``setjmp`` buffers hold their resume target in memory; overflowing a
  ``jmp_buf`` redirects ``longjmp``.

The machine supports pluggable *access observers* (used by the
Valgrind/Mudflap/Jones-Kelly/MSCC baseline checkers) and executes the
SoftBound runtime instructions (`sb_check`, `sb_meta_*`) against a
metadata facility when the module has been transformed.
"""

from typing import NamedTuple

from ..ir.irtypes import F64, I64, PTR
from ..ir.values import Const, Register, SymbolRef
from ..obs.profiler import site_of
from .costs import CostStats, OP_COSTS
from .errors import ExecutionResult, Trap, TrapKind
from .libc import Libc
from .memory import CODE_BASE, CODE_STRIDE, GLOBALS_BASE, Memory

_RETADDR_BASE = 0x000A_0000
_LJTARGET_BASE = 0x000C_0000

#: Shared with the compiled engine so both raise an identical trap.
RESOURCE_LIMIT_MSG = "instruction budget exhausted"

#: The integer ALU, one Python expression over ``a`` and ``b`` per
#: binop (before wrapping to the destination type).  The interpreter
#: builds its ``_INT_OPS`` functions from it and the compiled engine
#: inlines it, so the two engines share one definition.
INT_OPERATORS = {
    "add": "a + b",
    "sub": "a - b",
    "mul": "a * b",
    "and": "a & b",
    "or": "a | b",
    "xor": "a ^ b",
    "shl": "a << (b & 63)",
}


class _ExitProgram(Exception):
    def __init__(self, code):
        self.code = code


class Frame:
    __slots__ = (
        "function", "regs", "base", "size", "fp", "expected_ret",
        "caller_site", "block", "index", "dst_reg", "dst_meta",
        "va_spill", "va_bytes", "va_ptr_count", "va_metas", "alloca_ctypes",
        "lock_slot",
    )

    def __init__(self, function):
        self.function = function
        self.regs = {}
        self.base = 0
        self.size = 0
        self.fp = 0
        self.expected_ret = 0
        self.caller_site = None  # (block, index) in caller
        self.block = None
        self.index = 0
        self.dst_reg = None
        self.dst_meta = None
        self.va_spill = 0
        self.va_bytes = 0
        self.va_ptr_count = 0
        self.va_metas = {}
        self.alloca_ctypes = []
        self.lock_slot = 0  # the frame's temporal lock (0: none acquired)


class Observer:
    """Hook interface for baseline checkers (no-op defaults)."""

    def attach(self, machine):
        self.machine = machine

    def on_global(self, addr, size, name, ctype):
        pass

    def on_heap_alloc(self, addr, size):
        pass

    def on_heap_free(self, addr, size):
        pass

    def on_stack_alloc(self, addr, size, name, ctype):
        pass

    def on_stack_free(self, addr, size):
        pass

    def on_load(self, addr, size):
        pass

    def on_store(self, addr, size):
        pass

    def on_pointer_create(self, value, origin):
        pass


class FrameLayout(NamedTuple):
    """A function's static frame layout (see :func:`_frame_layout`)."""

    offsets: dict  # alloca register uid -> offset from the frame base
    allocas: list  # (offset, size, name, ctype), for observers
    fp_offset: int  # saved FP
    ret_offset: int  # return address
    va_offset: int  # vararg spill area, and the size without varargs
    #: ``(offset, size)`` of each pointer-bearing alloca: the slots whose
    #: metadata frame teardown clears (paper Section 5.2's heuristic:
    #: only variables that likely had pointer metadata set).
    pointer_slots: tuple


def _frame_layout(function):
    """Compute (and cache) the static frame layout of a function:
    alloca offsets, the saved-FP/return-address slots above them, and a
    spill area for variadic arguments above those (like stack-passed
    arguments on x86)."""
    cached = getattr(function, "_frame_layout", None)
    if cached is not None:
        return cached
    offsets = {}
    offset = 0
    allocas = []
    ordered = [i for i in function.instructions() if i.opcode == "alloca"]
    ordered.sort(key=lambda i: bool(i.is_param))  # body locals low, params high
    for instr in ordered:
        align = max(instr.align, 1)
        offset = (offset + align - 1) // align * align
        offsets[instr.dst.uid] = offset
        allocas.append((offset, instr.size, instr.name, instr.ctype))
        offset += instr.size
    offset = (offset + 7) // 8 * 8
    pointer_slots = tuple((off, size) for off, size, _, ctype in allocas
                          if ctype is not None and ctype.contains_pointer())
    layout = FrameLayout(offsets, allocas, offset, offset + 8, offset + 16,
                         pointer_slots)
    function._frame_layout = layout
    return layout


def param_bindings(function, args, arg_metas, arity, zero=0):
    """The registers a call binds in ``function``'s new frame, in
    binding order: ``(register uid, value)`` for each named parameter
    ``args`` covers, then one per SoftBound companion parameter — one
    metadata tuple per pointer-typed named parameter, in order (paper
    Section 3.3): (base, bound), widened with (key, lock) under
    temporal checking.  A pointer parameter the call passes no metadata
    for (``arg_metas`` from :meth:`Machine._split_call_metadata`), or
    fewer than ``arity`` values, gets ``zero`` for the missing ones.
    :meth:`Machine._push_frame` binds values with it; the compiled
    engine applies it to argument positions (``zero`` None) to plan a
    call site once."""
    bindings = [(param.register.uid, value)
                for param, value in zip(function.params, args)]
    sb_params = getattr(function, "sb_extra_params", [])
    if sb_params:
        flat = []
        for i, param in enumerate(function.params):
            if param.ctype is not None and param.ctype.is_pointer:
                meta = arg_metas[i] if arg_metas and i < len(arg_metas) else None
                if meta is None:
                    meta = (zero,) * arity
                flat.extend(meta)
                if len(meta) < arity:
                    flat.extend([zero] * (arity - len(meta)))
        bindings.extend((param.register.uid, value)
                        for param, value in zip(sb_params, flat))
    return bindings


class LoadPlan(NamedTuple):
    """What loading a module puts in every machine (see
    :func:`_load_plan`)."""

    symbol_addrs: dict  # symbol -> address (code, globals, aliases)
    addr_to_function: dict  # code address -> function or builtin name
    #: Each call site's return-address token, keyed like
    #: :meth:`Machine._call_site_key`.
    call_sites: dict
    globals_size: int
    images: tuple  # (offset in the globals segment, GlobalVar)
    relocations: tuple  # (address, resolved pointer)


def _load_plan(module, builtin_names):
    """Compute (and cache on ``module``) its load plan: code addresses
    for every function and builtin name (the latter may be taken as
    function pointers), the globals layout and its resolved
    relocations, and every call site's return-address token.  All of
    it depends only on the module, so every machine copies one plan; it
    is recomputed when the module's functions, their blocks' ``version``
    stamps, or its globals' names, sizes or alignments change."""
    functions = module.functions
    stamp = (tuple(functions.items()),
             tuple([(name, gvar.size, gvar.align)
                    for name, gvar in module.globals.items()]),
             tuple([block.version for function in functions.values()
                    for block in function.blocks]))
    cached = getattr(module, "_load_plan", None)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    symbol_addrs = {}
    addr_to_function = {}
    for name in list(functions) + list(builtin_names):
        if name not in symbol_addrs:
            addr = CODE_BASE + len(symbol_addrs) * CODE_STRIDE
            symbol_addrs[name] = addr
            addr_to_function[addr] = name
    # Globals layout.
    offset = 0
    images = []
    for name, gvar in module.globals.items():
        align = max(gvar.align, 1)
        offset = (offset + align - 1) // align * align
        images.append((offset, gvar))
        symbol_addrs[name] = GLOBALS_BASE + offset
        offset += max(gvar.size, 1)
    # SoftBound renames functions `_sb_*`; pre-transform symbol names
    # (used by function pointers and global initializers) alias the
    # transformed definitions.
    for orig, new in getattr(module, "sb_aliases", {}).items():
        if orig not in symbol_addrs and new in symbol_addrs:
            symbol_addrs[orig] = symbol_addrs[new]
    # Relocations, now that all symbols have addresses.
    relocations = []
    for off, gvar in images:
        for roff, sym, addend in gvar.relocs:
            target = symbol_addrs.get(sym)
            if target is None:
                raise Trap(TrapKind.SEGFAULT, f"unresolved symbol {sym}")
            relocations.append((GLOBALS_BASE + off + roff, target + addend))
    # Pre-assign every call site's return-address token in module
    # layout order.  Tokens are observable program state (a frame's
    # saved-RA bytes live in simulated stack memory, and overreads can
    # fold them into output), so their values must not depend on which
    # engine executes or in what dynamic order calls first run;
    # Machine._site_id still assigns lazily for any call created later.
    call_sites = {}
    for function in functions.values():
        for block in function.blocks:
            for instr in block.instructions:
                if instr.opcode == "call":
                    key = Machine._call_site_key(function, instr)
                    if key not in call_sites:
                        call_sites[key] = _RETADDR_BASE + (len(call_sites) + 1) * 8
    plan = LoadPlan(symbol_addrs, addr_to_function, call_sites, offset + 16,
                    tuple(images), tuple(relocations))
    module._load_plan = (stamp, plan)
    return plan


class Machine:
    """Loads a module and executes it.

    ``engine`` selects the dispatch strategy:

    * ``"compiled"`` (default) — the region-compiled threaded-code
      engine in :mod:`repro.vm.engine`: each straight-line run of a
      block is translated once into one generated function with
      operands, costs, branch targets and symbol addresses
      pre-resolved.
    * ``"interp"`` — the reference interpreter below, kept as the
      executable specification; ``tests/vm/test_engine_equivalence.py``
      pins the two engines to bit-identical :class:`ExecutionResult`\\ s.

    Engine names and the flag > ``REPRO_ENGINE`` > default resolution
    live in one place, :mod:`repro.api.env` (``ENGINES``,
    ``resolve_engine``).
    """

    def __init__(self, module, heap_size=None, stack_size=None,
                 input_data=b"", max_instructions=200_000_000, engine=None):
        # Centralized flag > REPRO_ENGINE > default resolution (the
        # import is deferred: repro.api pulls in this module).
        from ..api.env import resolve_engine

        self.engine_name = resolve_engine(engine)
        self._engine = None
        self.module = module
        kwargs = {}
        if heap_size:
            kwargs["heap_size"] = heap_size
        if stack_size:
            kwargs["stack_size"] = stack_size
        self.memory = Memory(**kwargs)
        self.stats = CostStats()
        self.libc = Libc(self)
        self.observers = []
        self.sb_runtime = None  # set by the SoftBound runtime when active
        self.site_profile = None  # set by attach_site_profile (obs profiler)
        self.input_data = input_data
        self.input_pos = 0
        self.output = []
        self.max_instructions = max_instructions
        self.frames = []
        self.sp = self.memory.stack.end
        self.rng_state = 1
        self.jmpbufs = {}
        self._control_transferred = False
        self._load()

    # -- loading -------------------------------------------------------------

    def _load(self):
        plan = _load_plan(self.module, self.libc.builtin_names())
        self.symbol_addrs = dict(plan.symbol_addrs)
        self.addr_to_function = dict(plan.addr_to_function)
        self.call_sites = dict(plan.call_sites)
        self.next_site = len(plan.call_sites)
        data = self.memory.map_globals(plan.globals_size).data
        for off, gvar in plan.images:
            data[off:off + len(gvar.data)] = gvar.data
        for addr, value in plan.relocations:
            self.memory.write_ptr(addr, value)

    def attach_observer(self, observer):
        observer.attach(self)
        self.observers.append(observer)
        if self._engine is not None:
            # Compiled closures specialize away empty-observer branches.
            self._engine.invalidate()
        for name, gvar in self.module.globals.items():
            observer.on_global(self.symbol_addrs[name], max(gvar.size, 1), name, gvar.ctype)
        return observer

    def attach_site_profile(self, profile):
        """Attach an ``obs.profiler.SiteProfile``: every executed
        sb_check / sb_temporal_check / sb_meta_load is counted against
        its ``obs_site``.  The compiled engine regenerates its closures
        with counting variants (specialized at make time, so detached
        machines pay nothing)."""
        self.site_profile = profile
        if self._engine is not None:
            self._engine.invalidate()
        return profile

    # -- running ---------------------------------------------------------------

    def run(self, entry="main", args=()):
        """Execute ``entry`` to completion; never raises for program-level
        events — returns an :class:`ExecutionResult`."""
        function = self._resolve_entry(entry)
        trap = None
        exit_code = 0
        try:
            if self.sb_runtime is not None:
                self.sb_runtime.initialize_globals(self)
            value = self._call_function(function, list(args), site_id=0)
            exit_code = int(value) if value is not None else 0
        except _ExitProgram as exc:
            exit_code = exc.code
        except Trap as caught:
            trap = caught
        result = ExecutionResult(
            exit_code=exit_code,
            output="".join(self.output),
            trap=trap,
            stats=self.stats,
        )
        self.stats.peak_heap = self.memory.peak_heap
        if self.sb_runtime is not None:
            self.stats.metadata_bytes = self.sb_runtime.facility.metadata_bytes()
        return result

    def _resolve_entry(self, entry):
        name = entry
        if name not in self.module.functions and f"_sb_{name}" in self.module.functions:
            name = f"_sb_{name}"
        if name not in self.module.functions:
            raise KeyError(f"no entry function {entry!r}")
        return self.module.functions[name]

    # -- calls -------------------------------------------------------------------

    @staticmethod
    def _call_site_key(function, instr):
        """The identity a call instruction's return-address token is
        keyed on.  A pass that clones a call (checkwiden's slow-path
        loop version) stamps the clone with ``sb_site_key`` pointing at
        the original, so both copies share one token: tokens are
        observable program state (overreads can fold saved-RA bytes
        into output) and must not depend on whether a loop was cloned."""
        override = getattr(instr, "sb_site_key", None)
        if override is not None:
            return override
        return (function.name, id(instr))

    def _site_id(self, key):
        if key not in self.call_sites:
            self.next_site += 1
            self.call_sites[key] = _RETADDR_BASE + self.next_site * 8
        return self.call_sites[key]

    def _call_function(self, function, args, site_id, arg_metas=None):
        """Push the entry frame and run ``function`` to completion.
        Calls inside the program push their frames within the same
        dispatch loop (the interpreter's ``_execute_interp`` or the
        compiled engine's ``execute``) instead of recursing through
        Python; the *simulated* stack still holds FP/RA bytes so attacks
        behave realistically."""
        frame = self._push_frame(function, args, site_id, arg_metas)
        return self._execute(frame)

    @staticmethod
    def _split_call_metadata(args, instr, arity=2):
        """Undo the SoftBound call convention: original args followed by
        one metadata tuple per pointer-typed original argument —
        ``(base, bound)`` spatially, ``(base, bound, key, lock)`` under
        temporal checking (``arity`` is the runtime's ``meta_arity``).
        Returns (original_args, per-arg metadata list or None)."""
        ctypes = list(getattr(instr, "arg_ctypes", []) or [])
        n_ptr = sum(1 for t in ctypes if t is not None and t.is_pointer)
        if n_ptr == 0 or len(args) < len(ctypes) + arity * n_ptr:
            return args, None
        original = args[: len(args) - arity * n_ptr]
        flat = args[len(args) - arity * n_ptr :]
        metas = []
        cursor = 0
        for i in range(len(original)):
            ctype = ctypes[i] if i < len(ctypes) else None
            if ctype is not None and ctype.is_pointer:
                metas.append(tuple(flat[cursor:cursor + arity]))
                cursor += arity
            else:
                metas.append(None)
        return original, metas

    def _push_frame(self, function, args, site_id, arg_metas=None):
        offsets, allocas, fp_off, ret_off, va_off, _ = _frame_layout(function)
        named = len(function.params)
        extra = args[named:] if function.varargs else []
        va_area = len(extra) * 8
        frame_size = va_off + va_area
        base = self.sp - frame_size
        if base < self.memory.stack.base:
            raise Trap(TrapKind.STACK_OVERFLOW, function.name)
        frame = Frame(function)
        frame.base = base
        frame.size = frame_size
        frame.fp = base + fp_off
        frame.expected_ret = site_id
        frame.alloca_ctypes = allocas
        # Materialize saved FP and return address in simulated memory.
        caller_fp = self.frames[-1].fp if self.frames else 0
        self.memory.write_ptr(frame.fp, caller_fp)
        self.memory.write_ptr(frame.fp + 8, site_id)
        # Bind named parameters and their SoftBound companions.
        arity = self.sb_runtime.meta_arity if self.sb_runtime is not None else 2
        frame.regs.update(param_bindings(function, args, arg_metas, arity))
        # Acquire the frame's temporal lock: every alloca-derived pointer
        # in this function keys on it, and teardown kills it.
        if self.sb_runtime is not None and self.sb_runtime.temporal:
            frame_meta = getattr(function, "sb_frame_meta", None)
            if frame_meta is not None:
                key, slot = self.sb_runtime.lockspace.acquire(self.stats)
                frame.regs[frame_meta[0].uid] = key
                frame.regs[frame_meta[1].uid] = slot
                frame.lock_slot = slot
        # Spill variadic extras above the return address (x86-style).
        if function.varargs:
            spill = base + va_off
            frame.va_spill = spill
            frame.va_bytes = va_area
            metas = {}
            for i, value in enumerate(extra):
                meta = arg_metas[named + i] if arg_metas and named + i < len(arg_metas) else None
                if meta is not None:
                    metas[i * 8] = meta
                    frame.va_ptr_count += 1
                self.memory.write_int(spill + i * 8, int(value) if not isinstance(value, float) else 0, 8)
                if isinstance(value, float):
                    self.memory.write_f64(spill + i * 8, value)
            frame.va_metas = metas
        self.sp = base
        self.frames.append(frame)
        for observer in self.observers:
            for off, size, name, ctype in allocas:
                observer.on_stack_alloc(base + off, size, name, ctype)
        return frame

    def _pop_frame(self):
        frame = self.frames.pop()
        for observer in self.observers:
            for off, size, name, ctype in frame.alloca_ctypes:
                observer.on_stack_free(frame.base + off, size)
        if self.sb_runtime is not None:
            self.sb_runtime.on_frame_teardown(self, frame)
        self.sp = frame.base + frame.size
        return frame

    def current_frame(self):
        return self.frames[-1]

    # -- the dispatch loop ------------------------------------------------------------

    def _execute(self, frame):
        """Run ``frame`` until its function returns; returns the value.
        Dispatches to the selected engine."""
        if self.engine_name == "compiled":
            engine = self._engine
            if engine is None:
                from .engine import ClosureEngine

                engine = self._engine = ClosureEngine(self)
            return engine.execute(frame)
        return self._execute_interp(frame)

    def _execute_interp(self, frame):
        """The reference interpreter loop (executable specification)."""
        depth = len(self.frames)
        frame.block = frame.function.entry
        frame.index = 0
        stats = self.stats
        while True:
            if frame is not self.frames[-1]:
                frame = self.frames[-1]  # longjmp may have unwound
            if len(self.frames) < depth:
                raise Trap(TrapKind.UNREACHABLE, "frame unwound past execute root")
            block = frame.block
            if frame.index >= len(block.instructions):
                raise Trap(TrapKind.UNREACHABLE, f"fell off block {block.label}")
            instr = block.instructions[frame.index]
            stats.instructions += 1
            if stats.instructions > self.max_instructions:
                raise Trap(TrapKind.RESOURCE_LIMIT, RESOURCE_LIMIT_MSG)
            op = instr.opcode
            if op == "ret":
                value = self._exec_ret(frame, instr)
                if len(self.frames) < depth:
                    return value
                frame = self.frames[-1]
                continue
            handler = _DISPATCH[op]
            next_pos = handler(self, frame, instr)
            if next_pos is None:
                frame.index += 1
            # handlers that branch / call set frame.block/index themselves

    # -- operand evaluation -----------------------------------------------------

    def _value(self, frame, operand):
        if isinstance(operand, Register):
            return frame.regs.get(operand.uid, 0)
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, SymbolRef):
            addr = self.symbol_addrs.get(operand.name)
            if addr is None:
                raise Trap(TrapKind.SEGFAULT, f"unresolved symbol {operand.name}")
            return addr + operand.addend
        raise TypeError(f"bad operand {operand!r}")

    @staticmethod
    def _wrap_int(value, irtype):
        bits = irtype.size * 8
        value &= (1 << bits) - 1
        if irtype.kind != "ptr" and value >= 1 << (bits - 1):
            value -= 1 << bits
        return value

    @staticmethod
    def _as_unsigned(value, irtype):
        bits = irtype.size * 8
        return value & ((1 << bits) - 1)

    # -- instruction handlers ----------------------------------------------------

    def _exec_alloca(self, frame, instr):
        offsets = _frame_layout(frame.function).offsets
        frame.regs[instr.dst.uid] = frame.base + offsets[instr.dst.uid]
        self.stats.charge("alloca")

    def _exec_load(self, frame, instr):
        addr = self._value(frame, instr.addr)
        size = instr.type.size
        for observer in self.observers:
            observer.on_load(addr, size)
        if instr.type.is_float:
            value = self.memory.read_f64(addr)
        elif instr.type.is_ptr:
            value = self.memory.read_int(addr, 8, signed=False)
        else:
            value = self.memory.read_int(addr, size, signed=True)
        frame.regs[instr.dst.uid] = value
        stats = self.stats
        stats.charge("load")
        stats.memory_ops += 1
        if instr.is_pointer_value:
            stats.pointer_memory_ops += 1

    def _exec_store(self, frame, instr):
        addr = self._value(frame, instr.addr)
        value = self._value(frame, instr.value)
        size = instr.type.size
        for observer in self.observers:
            observer.on_store(addr, size)
        if instr.type.is_float:
            self.memory.write_f64(addr, value)
        else:
            self.memory.write_int(addr, int(value), size)
        stats = self.stats
        stats.charge("store")
        stats.memory_ops += 1
        if instr.is_pointer_value:
            stats.pointer_memory_ops += 1
        elif self.sb_runtime is not None and self.sb_runtime.observes_stores:
            # Inline-metadata baselines (Section 3.4): data stores reach
            # the in-band metadata.
            self.sb_runtime.on_program_store(addr, size)

    _INT_OPS = {op: eval(f"lambda a, b: {expr}")
                for op, expr in INT_OPERATORS.items()}

    def _exec_binop(self, frame, instr):
        a = self._value(frame, instr.a)
        b = self._value(frame, instr.b)
        op = instr.op
        dst_type = instr.dst.type
        fn = self._INT_OPS.get(op)
        if fn is not None:
            value = self._wrap_int(fn(int(a), int(b)), dst_type)
        elif op in ("sdiv", "srem"):
            if b == 0:
                raise Trap(TrapKind.DIV_BY_ZERO, "integer division by zero")
            q = abs(a) // abs(b) * (1 if (a >= 0) == (b >= 0) else -1)
            value = self._wrap_int(q if op == "sdiv" else a - q * b, dst_type)
        elif op in ("udiv", "urem"):
            ua = self._as_unsigned(int(a), dst_type)
            ub = self._as_unsigned(int(b), dst_type)
            if ub == 0:
                raise Trap(TrapKind.DIV_BY_ZERO, "integer division by zero")
            value = self._wrap_int(ua // ub if op == "udiv" else ua % ub, dst_type)
        elif op == "lshr":
            ua = self._as_unsigned(int(a), dst_type)
            value = self._wrap_int(ua >> (b & 63), dst_type)
        elif op == "ashr":
            value = self._wrap_int(int(a) >> (b & 63), dst_type)
        elif op.startswith("f"):
            if op == "fdiv":
                value = a / b if b != 0.0 else float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")
            else:
                value = {"fadd": a + b, "fsub": a - b, "fmul": a * b}[op]
        else:
            raise Trap(TrapKind.UNREACHABLE, f"bad binop {op}")
        frame.regs[instr.dst.uid] = value
        self.stats.charge(f"binop.{op}")

    _CMP_SIGNED = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}

    def _exec_cmp(self, frame, instr):
        a = self._value(frame, instr.a)
        b = self._value(frame, instr.b)
        pred = instr.pred
        if pred == "eq":
            result = a == b
        elif pred == "ne":
            result = a != b
        elif pred in ("slt", "sle", "sgt", "sge"):
            result = _compare(self._CMP_SIGNED[pred], a, b)
        elif pred in ("ult", "ule", "ugt", "uge"):
            irtype = _operand_type(instr.a, instr.b)
            ua = self._as_unsigned(int(a), irtype)
            ub = self._as_unsigned(int(b), irtype)
            result = _compare({"ult": "<", "ule": "<=", "ugt": ">", "uge": ">="}[pred], ua, ub)
        elif pred in ("feq", "fne", "flt", "fle", "fgt", "fge"):
            result = _compare({"feq": "==", "fne": "!=", "flt": "<",
                               "fle": "<=", "fgt": ">", "fge": ">="}[pred], a, b)
        else:
            raise Trap(TrapKind.UNREACHABLE, f"bad cmp {pred}")
        frame.regs[instr.dst.uid] = 1 if result else 0
        self.stats.charge("cmp")

    def _exec_gep(self, frame, instr):
        base = self._value(frame, instr.base)
        offset = self._value(frame, instr.offset)
        frame.regs[instr.dst.uid] = (int(base) + int(offset)) & ((1 << 64) - 1)
        self.stats.charge("gep")

    def _exec_cast(self, frame, instr):
        src = self._value(frame, instr.src)
        kind = instr.kind
        dst_type = instr.dst.type
        if kind in ("trunc", "zext", "sext", "bitcast", "ptrtoint", "inttoptr"):
            value = int(src)
            if kind == "zext":
                src_type = instr.src.type if isinstance(instr.src, (Register, Const)) else I64
                value = self._as_unsigned(value, src_type)
            value = self._wrap_int(value, dst_type)
        elif kind in ("sitofp",):
            value = float(int(src))
        elif kind in ("uitofp",):
            src_type = instr.src.type if isinstance(instr.src, (Register, Const)) else I64
            value = float(self._as_unsigned(int(src), src_type))
        elif kind in ("fptosi", "fptoui"):
            value = self._wrap_int(int(src), dst_type)
        else:
            raise Trap(TrapKind.UNREACHABLE, f"bad cast {kind}")
        frame.regs[instr.dst.uid] = value
        self.stats.charge("cast")

    def _exec_mov(self, frame, instr):
        frame.regs[instr.dst.uid] = self._value(frame, instr.src)
        self.stats.charge("mov")

    def _exec_br(self, frame, instr):
        frame.block = frame.function.block_map[instr.label]
        frame.index = 0
        self.stats.charge("br")
        return True

    def _exec_cbr(self, frame, instr):
        cond = self._value(frame, instr.cond)
        label = instr.true_label if cond else instr.false_label
        frame.block = frame.function.block_map[label]
        frame.index = 0
        self.stats.charge("cbr")
        return True

    def _exec_unreachable(self, frame, instr):
        raise Trap(TrapKind.UNREACHABLE, f"in {frame.function.name}/{frame.block.label}")

    def _exec_memcopy(self, frame, instr):
        dst = self._value(frame, instr.dst_addr)
        src = self._value(frame, instr.src_addr)
        size = instr.size
        for observer in self.observers:
            observer.on_load(src, size)
            observer.on_store(dst, size)
        self.memory.write(dst, self.memory.read(src, size))
        if self.sb_runtime is not None:
            if self.sb_runtime.observes_stores:
                self.sb_runtime.on_program_store(dst, size)
            self.sb_runtime.copy_metadata(src, dst, size, instr.ctype)
        self.stats.charge("memcopy.base")
        self.stats.charge("memcopy.per_8_bytes", max(size // 8, 1))
        self.stats.memory_ops += 2

    # -- calls and returns ---------------------------------------------------------

    def _exec_call(self, frame, instr):
        stats = self.stats
        stats.calls += 1
        stats.charge("call")
        stats.charge("call.per_arg", len(instr.args))
        args = [self._value(frame, a) for a in instr.args]
        target_name = instr.callee
        if target_name is None:
            addr = self._value(frame, instr.callee_reg)
            target_name = self.addr_to_function.get(int(addr))
            if target_name is None:
                raise Trap(TrapKind.WILD_JUMP, "indirect call to non-code address",
                           address=int(addr))
        # Prefer the SoftBound-transformed version when it exists.
        if self.sb_runtime is not None and f"_sb_{target_name}" in self.module.functions:
            target_name = f"_sb_{target_name}"
        if target_name in self.module.functions:
            function = self.module.functions[target_name]
            self._check_call_signature(instr, function)
            site = self._site_id(self._call_site_key(frame.function, instr))
            frame.index += 1  # resume after the call on return
            arg_metas = None
            if self.sb_runtime is not None:
                args, arg_metas = self._split_call_metadata(
                    args, instr, self.sb_runtime.meta_arity)
            new_frame = self._push_frame(function, args, site, arg_metas)
            new_frame.dst_reg = instr.dst
            new_frame.dst_meta = getattr(instr, "sb_dst_meta", None)
            new_frame.caller_site = frame
            new_frame.block = function.entry
            new_frame.index = 0
            return True
        # Builtin / libc.
        self._control_transferred = False
        result = self.libc.call(target_name, args, instr)
        if self._control_transferred:
            # longjmp rewrote the current frame's position; do not let
            # the dispatch loop advance past the resume point.
            return True
        if instr.dst is not None:
            _store_result(frame.regs, instr.dst,
                          getattr(instr, "sb_dst_meta", None), result)

    def _check_call_signature(self, instr, function):
        """Dynamic pointer/non-pointer signature check at indirect calls
        (paper Section 5.2's sketched extension, enabled by the
        ``encode_fnptr_signature`` config flag).  Traps when a function
        pointer was cast to an incompatible argument shape, *before*
        control transfers, instead of relying on a later (and possibly
        absent) in-callee bounds violation."""
        expected = getattr(instr, "sb_call_signature", None)
        declared = getattr(function, "sb_signature", None)
        if expected is None or declared is None:
            return
        signature, varargs = declared
        self.stats.charge("sb.fnptr.check")
        compatible = (
            len(expected) >= len(signature)
            and tuple(expected[: len(signature)]) == signature
            and (varargs or len(expected) == len(signature))
        )
        if not compatible:
            raise Trap(
                TrapKind.FUNCTION_POINTER_VIOLATION,
                f"indirect call signature mismatch: call site passes "
                f"{_sig_text(expected)}, {function.name} declares "
                f"{_sig_text(signature)}{', ...' if varargs else ''}",
                source="softbound",
            )

    def _exec_ret(self, frame, instr):
        self.stats.charge("ret")
        value = self._value(frame, instr.value) if instr.value is not None else None
        meta_vals = tuple(self._value(frame, m)
                          for m in getattr(instr, "sb_meta", None) or ())
        # Read the control data back from simulated memory — the attack
        # surface the Wilander suite exercises.
        saved_fp = self.memory.read_ptr(frame.fp)
        ret_addr = self.memory.read_ptr(frame.fp + 8)
        if ret_addr != frame.expected_ret:
            target = self.addr_to_function.get(ret_addr, "")
            kind = TrapKind.CONTROL_FLOW_HIJACK if target else TrapKind.WILD_JUMP
            raise Trap(kind, "return address overwritten",
                       address=ret_addr, target_symbol=target)
        self._pop_frame()
        if not self.frames:
            return value
        caller = self.frames[-1]
        # Restore the caller's FP *from memory* — a corrupted saved FP
        # redirects the caller's own return sequence (old-BP attack).
        if saved_fp != caller.fp:
            caller.fp = saved_fp
        if frame.dst_reg is not None and value is not None:
            caller.regs[frame.dst_reg.uid] = value
        if frame.dst_meta is not None:
            _write_meta(caller.regs, frame.dst_meta, meta_vals)
        return value

    # -- SoftBound runtime instructions ------------------------------------------

    def _exec_sb_check(self, frame, instr):
        if self.site_profile is not None:
            self.site_profile.record("sb_check", site_of(instr))
        runtime = self.sb_runtime
        ptr = self._value(frame, instr.ptr)
        base = self._value(frame, instr.base)
        bound = self._value(frame, instr.bound)
        size = self._value(frame, instr.size)
        self.stats.checks += 1
        if instr.is_fnptr_check:
            self.stats.charge("sb.fnptr.check")
            if not (ptr == base == bound) or ptr == 0:
                raise Trap(TrapKind.FUNCTION_POINTER_VIOLATION,
                           "indirect call through non-function pointer",
                           address=ptr, source="softbound")
            return
        self.stats.charge(getattr(runtime, "check_cost_key", "sb.check"))
        if ptr < base or ptr + size > bound:
            raise Trap(
                TrapKind.SPATIAL_VIOLATION,
                f"{instr.access_kind} of {size} bytes outside [0x{base:x}, 0x{bound:x})",
                address=ptr,
                source="softbound",
            )

    def _exec_sb_meta_load(self, frame, instr):
        if self.site_profile is not None:
            self.site_profile.record("sb_meta_load", site_of(instr))
        addr = self._value(frame, instr.addr)
        base, bound = self.sb_runtime.facility.load(addr, self.stats)
        frame.regs[instr.dst_base.uid] = base
        frame.regs[instr.dst_bound.uid] = bound
        if instr.dst_key is not None:
            key, lock = self.sb_runtime.facility.load_temporal(addr, self.stats)
            frame.regs[instr.dst_key.uid] = key
            frame.regs[instr.dst_lock.uid] = lock
        self.stats.metadata_loads += 1

    def _exec_sb_meta_store(self, frame, instr):
        addr = self._value(frame, instr.addr)
        base = self._value(frame, instr.base)
        bound = self._value(frame, instr.bound)
        self.sb_runtime.facility.store(addr, base, bound, self.stats)
        if instr.key is not None:
            self.sb_runtime.facility.store_temporal(
                addr, self._value(frame, instr.key),
                self._value(frame, instr.lock), self.stats)
        self.stats.metadata_stores += 1

    def _exec_sb_temporal_check(self, frame, instr):
        if self.site_profile is not None:
            self.site_profile.record("sb_temporal_check", site_of(instr))
        ptr = self._value(frame, instr.ptr)
        key = self._value(frame, instr.key)
        lock = self._value(frame, instr.lock)
        stats = self.stats
        stats.temporal_checks += 1
        stats.charge("sb.temporal.check")
        if not self.sb_runtime.lockspace.live(key, lock):
            from .errors import temporal_violation

            raise temporal_violation(instr.access_kind, ptr, key, lock)

    # -- services used by libc -----------------------------------------------------

    def notify_load(self, addr, size):
        for observer in self.observers:
            observer.on_load(addr, size)

    def notify_store(self, addr, size, pointer_free=True):
        for observer in self.observers:
            observer.on_store(addr, size)
        if pointer_free and self.sb_runtime is not None \
                and self.sb_runtime.observes_stores:
            self.sb_runtime.on_program_store(addr, size)

    def emit_output(self, text):
        self.output.append(text)

    def read_input_line(self):
        """Read a line from the program's stdin buffer (for gets())."""
        data = self.input_data
        if self.input_pos >= len(data):
            return b""
        end = data.find(b"\n", self.input_pos)
        if end == -1:
            line = data[self.input_pos:]
            self.input_pos = len(data)
        else:
            line = data[self.input_pos:end]
            self.input_pos = end + 1
        return line

    def read_input_char(self):
        if self.input_pos >= len(self.input_data):
            return -1
        byte = self.input_data[self.input_pos]
        self.input_pos += 1
        return byte

    def exit_program(self, code):
        raise _ExitProgram(code)

    # -- setjmp / longjmp --------------------------------------------------------------

    def do_setjmp(self, jb_addr, call_instr):
        token = len(self.jmpbufs) + 1
        resume_target = _LJTARGET_BASE + token * 16
        frame = self.current_frame()
        self.jmpbufs[token] = {
            "depth": len(self.frames),
            "frame": frame,
            "block": frame.block,
            "index": frame.index,
            "sp": self.sp,
            "dst": call_instr.dst,
            "target": resume_target,
        }
        self.memory.write_ptr(jb_addr, token)
        self.memory.write_ptr(jb_addr + 8, resume_target)
        return 0

    def do_longjmp(self, jb_addr, value):
        token = self.memory.read_ptr(jb_addr)
        stored_target = self.memory.read_ptr(jb_addr + 8)
        record = self.jmpbufs.get(token)
        expected = record["target"] if record else None
        if record is None or stored_target != expected:
            # The buffer was corrupted: control goes wherever the attacker
            # pointed it.
            target = self.addr_to_function.get(stored_target, "")
            kind = TrapKind.CONTROL_FLOW_HIJACK if target else TrapKind.WILD_JUMP
            raise Trap(kind, "longjmp through corrupted jmp_buf",
                       address=stored_target, target_symbol=target)
        if record["depth"] > len(self.frames) or self.frames[record["depth"] - 1] is not record["frame"]:
            raise Trap(TrapKind.WILD_JUMP, "longjmp to dead frame")
        # Unwind.
        while len(self.frames) > record["depth"]:
            self._pop_frame()
        self.sp = record["sp"]
        frame = self.frames[-1]
        frame.block = record["block"]
        frame.index = record["index"] + 1
        if record["dst"] is not None:
            frame.regs[record["dst"].uid] = value if value != 0 else 1
        self._control_transferred = True
        return None


def _store_result(regs, dst, dst_meta, result):
    """Write a builtin's result to the caller's register ``dst``: a
    tuple is a pointer a library wrapper returns with its metadata
    attached, ``(value, base, bound[, key, lock])``, which goes to the
    metadata registers ``dst_meta``."""
    if isinstance(result, tuple):
        regs[dst.uid] = result[0]
        meta = result[1:]
    else:
        regs[dst.uid] = result if result is not None else 0
        meta = ()
    if dst_meta is not None:
        _write_meta(regs, dst_meta, meta)


def _write_meta(regs, dst_meta, values):
    """Write returned metadata to the caller's registers ``dst_meta``:
    ``values`` in order, and zero past them."""
    for i, reg in enumerate(dst_meta):
        regs[reg.uid] = values[i] if i < len(values) else 0


def _sig_text(signature):
    return "(" + ", ".join("ptr" if p else "int" for p in signature) + ")"


def _compare(op, a, b):
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "==":
        return a == b
    return a != b


def _operand_type(a, b):
    for operand in (a, b):
        if isinstance(operand, (Register, Const)):
            return operand.type
    return I64


# The interpreter dispatch table is the *shared registry* from
# :mod:`repro.vm.dispatch`: core opcodes register here at import, and
# checker policies register additional opcodes through the same door
# (:meth:`repro.policy.base.CheckerPolicy.register_vm_handlers`) — the
# live dict means later registrations are dispatchable without
# rebuilding any machine.
from .dispatch import INTERP_HANDLERS as _DISPATCH, register_opcode

for _opcode, _handler in (
    ("alloca", Machine._exec_alloca),
    ("load", Machine._exec_load),
    ("store", Machine._exec_store),
    ("binop", Machine._exec_binop),
    ("cmp", Machine._exec_cmp),
    ("gep", Machine._exec_gep),
    ("cast", Machine._exec_cast),
    ("mov", Machine._exec_mov),
    ("br", Machine._exec_br),
    ("cbr", Machine._exec_cbr),
    ("unreachable", Machine._exec_unreachable),
    ("memcopy", Machine._exec_memcopy),
    ("call", Machine._exec_call),
    ("sb_check", Machine._exec_sb_check),
    ("sb_temporal_check", Machine._exec_sb_temporal_check),
    ("sb_meta_load", Machine._exec_sb_meta_load),
    ("sb_meta_store", Machine._exec_sb_meta_store),
):
    register_opcode(_opcode, interp=_handler)
del _opcode, _handler
