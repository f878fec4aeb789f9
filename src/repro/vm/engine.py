"""Region-compiled execution engine, generated from one source template
per opcode.

The reference interpreter in :mod:`repro.vm.machine` pays, on every
executed instruction: a dict dispatch, an unbound-method call, one
``isinstance`` chain per operand, a string-keyed ``stats.charge`` and —
for memory operations — a segment scan plus ``int.from_bytes``.  None of
that work depends on runtime values, so this module hoists all of it to
a one-time compilation pass, the classic closure-compilation /
threaded-code technique from the interpreter-optimization literature,
applied per *region* rather than per instruction:

* a **region** is a straight-line run of a block: it starts at the
  block's first instruction or just after a ``call`` (the only points
  where returns and ``longjmp`` resume) and ends with the block's
  terminator or just before the next ``call``, ``ret`` or interp-only
  opcode;
* each region becomes one generated Python function with its operands
  pre-resolved (register uid / constant / resolved symbol address), its
  cost units summed into constants and its branch targets pre-bound to
  flat op offsets; a value an earlier instruction of the region
  computed is read from that instruction's local, and every register
  write still reaches the register file;
* ``call`` and ``ret`` (frame transfer) are one-instruction slots,
  generated from their templates like any region.  A direct call to a
  non-variadic module function, protected or not, follows its *call
  plan*: which caller register, constant or zero each callee register
  gets (named parameters, the SoftBound companions, the metadata the
  call site appends).  The plan is the interpreter's own convention
  (``Machine._split_call_metadata``, then
  :func:`~repro.vm.machine.param_bindings`) applied once per call site
  to argument positions; the op binds the callee's registers as one
  dict display, packs the saved FP and return address straight into
  the stack segment and acquires the frame's temporal lock itself.  A
  direct call to a libc routine applies ``Libc.call``'s split of the
  arguments from their metadata once per call site the same way, and
  calls the routine's handler with the two lists.  Every other call —
  indirect, to a variadic callee, on an observed machine, with an
  argument naming an unresolved symbol (whose evaluation must trap),
  or to a routine libc lacks — runs the interpreter's own ``call``
  handler, ``Machine._exec_call``, the way an interp-only opcode runs
  (:func:`_interpreted`).  ``ret`` reads the returned value and
  metadata inline; on an unobserved machine it tears the frame down
  inline: it clears the metadata of the function's pointer-bearing
  slots (its frame layout's ``pointer_slots``) and releases the
  frame's lock;
* an opcode a checker policy registers with only an interpreter
  handler is a one-instruction slot that always runs through that
  handler (:func:`_interpret`) and is never compiled;
* the dispatch loop is ``i = ops[i](frame, regs)``: each op returns the
  next op's flat offset, so there is no per-step opcode lookup at all,
  and one dispatch runs a whole region.

**Templates.**  Each opcode's semantics is written once, in
:data:`TEMPLATES`: the body of its part of a region as source text.
``$name`` is an operand hole (the instruction attribute of that name,
or an operand the binder names) or a code literal the binder supplies
as a string flag (``$expr``; a literal of several lines keeps the
indentation of the line it stands in).  A line prefixed ``?flag`` is
kept only when the flag is set (``?!flag``: only when clear); a line
prefixed ``=`` is pure: when every operand of the instruction is a
constant, the pure lines run once at specialization time instead
(constant folding); a line prefixed ``+`` is a counter increment
``st.FIELD += AMOUNT`` that the region batches (below).  An operand
hole renders as an inlined register read (``regs[r_a_0]``;
adjacent reads share one ``try`` whose ``except KeyError`` repeats them
with ``regs.get(r_a_0, 0)``), a bound constant, a trapping accessor for
an unresolved symbol, or the local an earlier instruction of the region
left the register's value in; ``int($a)`` drops the ``int()`` when the
operand's static type rules out a float.  Every name an instruction's
template binds or assigns gets the instruction's position as a suffix
(``value_3``), so the concatenated templates never collide.

**Counters and the budget.**  A region op tests the instruction budget
once, ``st.instructions + len(region) <= limit``, and writes the count
back at entry.  The ``+`` lines are removed from the body and their sums
added once, as constants, before the region returns (so ``ret`` and the
libc call, which return early, count with plain lines).  When the budget
test fails the region runs through the interpreter's handlers one
instruction at a time (:func:`_interpret`), so ``RESOURCE_LIMIT`` traps
at the same instruction; when an exception leaves the region part way,
one ``except`` clause maps the line it left at back to the instructions
that started and the ``+`` lines that ran (:func:`_repair`), so every
:class:`~repro.vm.costs.CostStats` counter is exact at any trap.  Nothing
a region calls (memory, observers, the metadata facility) reads those
counters mid-run, which is what makes the batching invisible.

**Shapes.**  A binder per opcode turns an instruction on a machine into
``(template, flags, bound values)``, and may name the operands of holes
that are not attributes of the instruction.  The templates, flags,
operand kinds and batched amounts of a region's instructions form its
*shape*; :func:`_generate` turns a shape into a closure factory with
``exec`` (the way :mod:`dataclasses` and ``namedtuple`` build their
methods).  Shapes are cached per process in ``_SHAPES``, an LRU
bounded to :data:`SHAPE_CACHE_ENTRIES`, and keep no copy of their
source: a lazy :mod:`linecache` entry regenerates it when a traceback
asks.  A factory reads the values that belong to one machine (its
stats, budget, slow path, memory and segment handles, runtime,
facility, lock table, site-profile counts, stack data: the names of
:data:`_MACHINE`) from the machine's values ``M`` and takes every other
bound value as a parameter; specializing a region is then one factory
call with ``M`` and the bound values.

**Profiling is a flag.**  The check-site counter is one ``?profile``
line at the start of each profiled template (the same program point the
interpreter records at), closing over the profile's ``counts`` dict;
with no profile attached the line is absent, so the disabled path builds
no profiling closure at all.

**Warm up once per program.**  A program pays for specialization once,
not once per machine: the machine-independent layout (flat offsets,
regions, call and ret sites) is cached on each function and
invalidated via its blocks' ``version`` stamps, and it keeps what
earlier machines of the program specialized.  Each region counts its
executions over all machines of the program: its first
:data:`HOT_RUNS` - 1 run through the reference interpreter's handlers
and the next one compiles it, so a region that was hot on an earlier
machine compiles at its first execution on a later one.  Every slot of
the layout (a region, call, ret or interp-only opcode) keeps one
*entry* per machine signature (:func:`_signature`: whether observers
and a site profile are attached, the SoftBound runtime's policy and
config, the heap and stack geometry, and the shape generation, which
:func:`clear_shapes` bumps): its op's factory with the bound values,
which are the same on every machine of that signature.  The first such
machine builds the entry and stores it; a later one specializes each
op lazily, at its first execution, with one factory call on its own
values.  Entries
hold program-level objects only, stay out of pickles with the layout
(``Function.__getstate__``) and are freed with their program.  Most
code of a short run (a freshly generated program) executes a few times
at most, and interpreting a region a few times costs far less than
generating and specializing it.

Semantics are bit-identical to the reference interpreter — execution
order, trap kinds/addresses/messages and every
:class:`~repro.vm.costs.CostStats` counter, which
``tests/vm/test_engine_equivalence.py`` pins over the full workload,
attack, bug and server corpora and ``tests/vm/test_budget_cuts.py`` at every
instruction budget of several windows.
"""

import linecache
import re
from functools import partial
from itertools import count

from ..ir.irtypes import I64
from ..ir.values import Const, Register, SymbolRef
from ..obs.profiler import site_of
from ..store.lru import LRUCache
from .costs import OP_COSTS
from .dispatch import INTERP_HANDLERS
from .errors import Trap, TrapKind, temporal_violation
from .libc import Libc
from .memory import _F64, _SCALAR_CODECS
from .machine import (
    INT_OPERATORS,
    RESOURCE_LIMIT_MSG as _RESOURCE_MSG,
    Frame,
    Machine,
    _frame_layout,
    _operand_type,
    _store_result,
    _write_meta,
    param_bindings,
)

#: A region's first ``HOT_RUNS - 1`` executions, counted over every
#: machine of its program, run through the interpreter's handlers and
#: the next one compiles it; on later machines it compiles at its first
#: execution.  Measured with perfbench on a 2-vCPU VM (see
#: PERFORMANCE.md, "Engine architecture"), when each machine still
#: counted its own executions: compiling at the first execution costs
#: fresh-batch latency, at the second serve-warm tail latency (binding
#: regions a fresh machine runs only a few times), and 16 serve-warm
#: median latency (loops stay interpreted longer); 4 and 8 measured
#: alike, and 4 is the smaller.
HOT_RUNS = 4

#: Bound on the per-process shape cache.  One pass over the corpus
#: workload (15 programs x 5 compile cells) generates 501 shapes,
#: so the bound holds a whole pass; past it the least recently used
#: shape is dropped and regenerated if it is needed again.
SHAPE_CACHE_ENTRIES = 1024

_M64 = (1 << 64) - 1

_COST_LOAD = OP_COSTS["load"]
_COST_STORE = OP_COSTS["store"]
_COST_CMP = OP_COSTS["cmp"]
_COST_GEP = OP_COSTS["gep"]
_COST_CAST = OP_COSTS["cast"]
_COST_BR = OP_COSTS["br"]
_COST_CBR = OP_COSTS["cbr"]
_COST_RET = OP_COSTS["ret"]
_COST_CALL = OP_COSTS["call"]
_COST_CALL_ARG = OP_COSTS["call.per_arg"]
_COST_FNPTR = OP_COSTS["sb.fnptr.check"]

#: Shared read-only vararg-metadata map for frames of non-variadic
#: functions pushed by the specialized call op (never mutated: only
#: ``_push_frame`` writes ``va_metas``, and only for variadic callees).
_EMPTY_VA_METAS = {}

#: The operand a call plan binds a zero-filled companion to.
_ZERO = Const(0, I64)


class ClosureEngine:
    """Per-machine compiled-code cache plus the threaded dispatch loop."""

    def __init__(self, machine):
        self.machine = machine
        self.stats = machine.stats
        self.memory = machine.memory
        self.observers = machine.observers
        self.limit = machine.max_instructions
        self._code = {}  # id(function) -> flat ops list
        self._ret_value = None
        self._returned = False
        self._rekey()

    def _rekey(self):
        """Name this machine's values (:func:`_machine_values`) and its
        signature (:func:`_signature`), the key its specializations are
        cached under on the program."""
        self.values = _machine_values(self)
        self.signature = _signature(self.machine)

    def invalidate(self):
        """Drop machine-level specializations and re-key the engine.
        This is the ONLY way to re-translate code on a *live* engine
        (e.g. after attaching an observer or a site profile): block
        ``version`` stamps invalidate the on-function layout consulted
        at compile time, but a function already in ``_code`` is never
        re-checked against them."""
        self._code.clear()
        self._rekey()

    # -- compilation --------------------------------------------------------

    def code_for(self, function):
        """The op list for ``function`` on this machine, one entry per
        flat instruction offset: each layout slot's starts as a stub
        (:func:`_cold`) that binds the slot's op, and the other offsets
        of a region hold ``None``: nothing resumes inside a region.

        The machine-level cache is validated once here, not per
        transition: IR rewrites happen before execution starts (the
        pipeline and transform bump block versions, which invalidates
        the on-function layout), and anything re-specializing a live
        machine goes through :meth:`invalidate`.
        """
        layout = _function_template(function)
        ops = [None] * len(layout)
        for i, region in enumerate(layout):
            if region is not None:
                ops[i] = partial(_cold, ops, i, region, self, function)
        self._code[id(function)] = ops
        return ops

    # -- the dispatch loop ---------------------------------------------------

    def execute(self, frame):
        """Run ``frame`` until its function returns; returns the value.
        Mirrors ``Machine._execute_interp`` frame-for-frame.

        Under this engine ``frame.index`` holds a *flat* offset into the
        function's compiled-op list (the concatenation of its blocks);
        in-function branches return the target offset directly, so only
        calls, returns and ``longjmp`` touch this outer loop.
        """
        machine = self.machine
        frames = machine.frames
        depth = len(frames)
        frame.block = frame.function.entry
        frame.index = 0
        code = self._code
        code_for = self.code_for
        while True:
            if self._returned:
                self._returned = False
                if len(frames) < depth:
                    value = self._ret_value
                    self._ret_value = None
                    return value
            elif len(frames) < depth:
                raise Trap(TrapKind.UNREACHABLE, "frame unwound past execute root")
            frame = frames[-1]
            function = frame.function
            ops = code.get(id(function))
            if ops is None:
                ops = code_for(function)
            i = frame.index
            regs = frame.regs
            while i >= 0:
                i = ops[i](frame, regs)


def _machine_values(engine):
    """The values a specialization takes from its machine, by the names
    of :data:`_MACHINE`."""
    machine = engine.machine
    memory = engine.memory
    runtime = machine.sb_runtime
    facility = lockspace = None
    if runtime is not None:
        facility = runtime.facility
        lockspace = runtime.lockspace
    profile = machine.site_profile
    return {
        "engine": engine, "machine": machine, "st": engine.stats,
        "limit": engine.limit, "observers": engine.observers,
        "memory": memory, "runtime": runtime, "facility": facility,
        "counts": None if profile is None else profile.counts,
        "segment_for": memory._segment_for, "cached": memory.heap,
        "slots": {} if lockspace is None else lockspace.slots,
        "frames": machine.frames, "stack_data": memory.stack.data,
        "libc": machine.libc, "addr_to_function": machine.addr_to_function,
        "read_ptr": memory.read_ptr,
        "check_signature": machine._check_call_signature,
        "pop_frame": machine._pop_frame,
        "clear_range": None if facility is None else facility.clear_range,
        "acquire": None if lockspace is None else lockspace.acquire,
        "release": None if lockspace is None else lockspace.release,
    }


#: Each machine signature seen, numbered (a small int hashes at once).
_SIGNATURES = {}


def _signature(machine):
    """The key a program keeps a specialization under: everything a
    binder reads from the machine beyond the machine values — whether
    observers and a site profile are attached, the SoftBound runtime's
    policy and config, the heap and stack geometry — and the shape
    generation (:func:`clear_shapes`), numbered in :data:`_SIGNATURES`."""
    runtime = machine.sb_runtime
    heap = machine.memory.heap
    stack = machine.memory.stack
    key = (bool(machine.observers), machine.site_profile is not None,
           None if runtime is None else (runtime.policy, runtime.config),
           heap.base, heap.end, stack.base, stack.end, _generation)
    return _SIGNATURES.setdefault(key, len(_SIGNATURES))


def _cold(ops, i, region, engine, function, frame, regs):
    """A slot's execution before this machine bound its op.  A region's
    first ``HOT_RUNS - 1`` executions, over all machines of the program,
    run through the interpreter's handlers; from the next one on, and
    for any other slot at once, the machine binds the op and runs it."""
    if region.build is None:
        seen = region.runs + 1
        if seen < HOT_RUNS:
            region.runs = seen
            return _interpret(engine, region, frame, regs)
    op = ops[i] = _bind_region(region, engine, function)
    return op(frame, regs)


def _interpret(engine, region, frame, regs):
    """Run ``region`` one instruction at a time exactly as the reference
    interpreter's loop does: count, budget test, handler.  Cold regions
    run here, and so does a compiled region whose budget test failed, so
    ``RESOURCE_LIMIT`` traps at the interpreter's instruction, and so do
    the slots of :func:`_interpreted`; when a ``call`` handler pushed a
    frame or ``longjmp`` resumed, the outer loop takes over."""
    st = engine.stats
    machine = engine.machine
    limit = engine.limit
    frame.block = region.block  # unreachable reports it; br/cbr replace it
    for instr in region.instrs:
        n = st.instructions + 1
        st.instructions = n
        if n > limit:
            raise Trap(TrapKind.RESOURCE_LIMIT, _RESOURCE_MSG)
        if INTERP_HANDLERS[instr.opcode](machine, frame, instr) is not None:
            if instr.is_terminator:
                return region.offsets[frame.block.label]
            if instr.opcode == "call":
                return -1
            # An interp-only handler transferred control, which a
            # straight-line region cannot mirror: failing loudly beats
            # silently executing the wrong successor.
            raise Trap(TrapKind.UNREACHABLE,
                       f"opcode {instr.opcode!r} transfers control, which "
                       f"the compiled engine's interpreter-handler adapter "
                       f"cannot follow")
    return region.nxt


# ---------------------------------------------------------------------------
# Function layout (machine-independent): each function's blocks are laid
# out into one flat list, one offset per instruction, holding a slot (a
# region, or a call, ret or interp-only opcode) at its first
# instruction's offset and ``None`` inside regions.  In-function branches
# resolve to flat offsets at compile time, so taken branches never leave
# the inner dispatch loop.  The layout is cached on the function and
# invalidated through its blocks' ``version`` stamps.
# ---------------------------------------------------------------------------


class _Region:
    """One slot of a function's layout: ``instrs`` of ``block``, then the
    op at flat offset ``nxt`` unless the last instruction is a
    terminator; ``offsets`` maps block labels to flat offsets.  A
    straight-line region counts in ``runs`` its interpreted executions
    over every machine of the program; a call, ret or interp-only slot
    (one instruction) or a sentinel (none) has a ``build(slot, engine,
    function)`` that makes its entry.  ``entries`` maps a machine
    signature to the slot's specialization (:func:`_bind_region`)."""

    __slots__ = ("instrs", "block", "offsets", "nxt", "runs", "entries",
                 "build")

    def __init__(self, instrs, block, offsets, nxt, build=None):
        self.instrs = tuple(instrs)
        self.block = block
        self.offsets = offsets
        self.nxt = nxt
        self.runs = 0
        self.entries = {}
        self.build = build


def _function_template(function):
    versions = tuple(block.version for block in function.blocks)
    cached = getattr(function, "_engine_template", None)
    if cached is not None and cached[0] == versions:
        return cached[1]
    # Flat offset of each block (a block without a terminator — malformed,
    # pre-verifier IR — gets a sentinel slot so falling off it traps
    # exactly like the reference interpreter).
    offsets = {}
    pos = 0
    for block in function.blocks:
        offsets[block.label] = pos
        pos += len(block.instructions)
        if block.terminator is None:
            pos += 1
    layout = [None] * pos
    for block in function.blocks:
        base = offsets[block.label]
        instrs = block.instructions
        start = 0
        for i, instr in enumerate(instrs):
            opcode = instr.opcode
            if opcode in _BINDERS:
                if instr.is_terminator:
                    layout[base + start] = _Region(instrs[start:i + 1], block,
                                                   offsets, base + i + 1)
                    start = i + 1
                continue
            if start < i:
                layout[base + start] = _Region(instrs[start:i], block,
                                               offsets, base + i)
            if opcode == "call":
                build = _call_entry
            elif opcode == "ret":
                build = _ret_entry
            elif opcode in INTERP_HANDLERS:
                build = _interp_entry
            else:
                raise Trap(TrapKind.UNREACHABLE, f"no builder for opcode {opcode}")
            layout[base + i] = _Region((instr,), block, offsets, base + i + 1,
                                       build)
            start = i + 1
        if start < len(instrs):
            layout[base + start] = _Region(instrs[start:], block, offsets,
                                           base + len(instrs))
        if block.terminator is None:
            layout[base + len(instrs)] = _Region((), block, offsets, None,
                                                 _sentinel_entry)
    function._engine_template = (versions, layout)
    return layout


def _interp_entry(slot, engine, function):
    """An opcode registered with only an interpreter handler runs
    through that handler every time."""
    return _interpreted, (slot,)


def _interpreted(M, slot):
    """The op of an interp-only opcode or a call no generated op covers:
    the interpreter's handler (:func:`_interpret`), after setting
    ``frame.index`` to the slot's offset as the interpreter's loop has
    it, so a ``call`` handler's ``+= 1`` resumes after the call and
    ``setjmp`` records the call site."""
    engine = M["engine"]
    index = slot.nxt - 1

    def op(frame, regs):
        frame.index = index
        return _interpret(engine, slot, frame, regs)

    return op


def _sentinel_entry(slot, engine, function):
    """Falling off a block without a terminator (malformed, pre-verifier
    IR) traps exactly like the reference interpreter."""
    return _fell_off, (f"fell off block {slot.block.label}",)


def _fell_off(M, msg):
    def op(frame, regs):
        raise Trap(TrapKind.UNREACHABLE, msg)

    return op


# ---------------------------------------------------------------------------
# Templates: one per opcode family (see the module docstring for the
# notation).  The generator writes the region's budget test and counter
# write-back around them; a region that does not end in a terminator
# falls through to ``return nxt``.
# ---------------------------------------------------------------------------

_SEGMENT = """\
?codec nonlocal cached
?codec seg = cached
?codec if addr < seg.base or addr + size > seg.end:
?codec     seg = segment_for(addr, size)
?codec     if seg is None:
?codec         raise Trap(TrapKind.SEGFAULT, f"VERB of {size} bytes", address=addr)
?codec     cached = seg
"""

TEMPLATES = {
    # alloca, mov, gep, cmp, cast and the non-dividing binops.
    "value": """\
= value = $expr
=?wrap if value >= sbit:
=?wrap     value -= span
regs[dst] = value
+?cost st.cost += cost
""",
    "divide": """\
?!unsigned a = $a
?!unsigned b = $b
?unsigned a = int($a) & mask
?unsigned b = int($b) & mask
if b == 0:
    raise Trap(TrapKind.DIV_BY_ZERO, "integer division by zero")
?!unsigned q = abs(a) // abs(b) * (1 if (a >= 0) == (b >= 0) else -1)
value = ($expr) & mask
?wrap if value >= sbit:
?wrap     value -= span
regs[dst] = value
+ st.cost += cost
""",
    "load": """\
addr = $addr
?obs for observer in observers:
?obs     observer.on_load(addr, size)
""" + _SEGMENT.replace("VERB", "read") + """\
?codec value = unpack(seg.data, addr - seg.base)[0]
?!codec value = read(addr)
regs[dst] = value
+ st.cost += _COST_LOAD
+ st.memory_ops += 1
+?ptrval st.pointer_memory_ops += 1
""",
    "store": """\
addr = $addr
?float value = float($value)
?!float value = int($value) & vmask
?obs for observer in observers:
?obs     observer.on_store(addr, size)
""" + _SEGMENT.replace("VERB", "write") + """\
?codec pack_into(seg.data, addr - seg.base, value)
?!codec write(addr, value)
+ st.cost += _COST_STORE
+ st.memory_ops += 1
+?ptrval st.pointer_memory_ops += 1
?pstore runtime.on_program_store(addr, size)
""",
    "memcopy": """\
dst = $dst_addr
src = $src_addr
?obs for observer in observers:
?obs     observer.on_load(src, size)
?obs     observer.on_store(dst, size)
memory.write(dst, memory.read(src, size))
?pstore runtime.on_program_store(dst, size)
?sb runtime.copy_metadata(src, dst, size, ctype)
+ st.cost += cost
+ st.memory_ops += 2
""",
    "br": """\
+ st.cost += _COST_BR
return target
""",
    "cbr": """\
cond = $cond
+ st.cost += _COST_CBR
return if_true if cond else if_false
""",
    "trap": """\
raise Trap(TrapKind.UNREACHABLE, msg)
""",
    "sb_check": """\
?profile counts[pkey] = counts.get(pkey, 0) + 1
ptr = $ptr
base = $base
bound = $bound
size = $size
+ st.checks += 1
+ st.cost += check_cost
?fnptr if not (ptr == base == bound) or ptr == 0:
?fnptr     raise Trap(TrapKind.FUNCTION_POINTER_VIOLATION,
?fnptr                "indirect call through non-function pointer",
?fnptr                address=ptr, source="softbound")
?!fnptr if ptr < base or ptr + size > bound:
?!fnptr     raise Trap(TrapKind.SPATIAL_VIOLATION,
?!fnptr                f"{access_kind} of {size} bytes outside [0x{base:x}, 0x{bound:x})",
?!fnptr                address=ptr, source="softbound")
""",
    "sb_temporal_check": """\
?profile counts[pkey] = counts.get(pkey, 0) + 1
key = $key
lock = $lock
+ st.temporal_checks += 1
+ st.cost += tcost
if key == 0 or slots.get(lock) != key:
    ptr = $ptr
    raise temporal_violation(access_kind, ptr, key, lock)
""",
    "sb_meta_load": """\
?profile counts[pkey] = counts.get(pkey, 0) + 1
addr = $addr
base, bound = facility.load(addr, st)
regs[d_base] = base
regs[d_bound] = bound
?temporal key, lock = facility.load_temporal(addr, st)
?temporal regs[d_key] = key
?temporal regs[d_lock] = lock
+ st.metadata_loads += 1
""",
    "sb_meta_store": """\
addr = $addr
base = $base
bound = $bound
facility.store(addr, base, bound, st)
?temporal key = $key
?temporal lock = $lock
?temporal facility.store_temporal(addr, key, lock, st)
+ st.metadata_stores += 1
""",
    # A direct call to a non-variadic module function on an unobserved
    # machine (``$plan``: the callee's register file as the entries of
    # a dict display over the site's call plan): the interpreter's
    # ``_exec_call`` and ``Machine._push_frame``, in their order — call
    # counters, the signature check, the stack-overflow test, the saved
    # FP and return address packed into the stack segment, the frame's
    # temporal lock.
    "call": """\
st.calls += 1
st.cost += call_cost
new_regs = {$plan}
?sig check_signature(instr, target)
base = machine.sp - frame_size
if base < stack_base:
    raise Trap(TrapKind.STACK_OVERFLOW, target_name)
fp = base + fp_off
off = fp - stack_base
pack_u64(stack_data, off, frame.fp & _M64)
pack_u64(stack_data, off + 8, site)
new_frame = new_frame_of(Frame)
?lock key, slot = acquire(st)
?lock new_regs[frame_key] = key
?lock new_regs[frame_lock] = slot
?lock new_frame.lock_slot = slot
?!lock new_frame.lock_slot = 0
new_frame.function = target
new_frame.regs = new_regs
new_frame.base = base
new_frame.size = frame_size
new_frame.fp = fp
new_frame.expected_ret = site
new_frame.alloca_ctypes = allocas
new_frame.va_spill = 0
new_frame.va_bytes = 0
new_frame.va_ptr_count = 0
new_frame.va_metas = _EMPTY_VA_METAS
new_frame.dst_reg = dst
new_frame.dst_meta = dst_meta
new_frame.caller_site = frame
new_frame.block = entry_block
new_frame.index = 0
machine.sp = base
frames.append(new_frame)
frame.index = nxt
return -1
""",
    # A direct call to a routine libc defines (``$args`` and ``$metas``:
    # the routine's arguments and their metadata by the site's plan):
    # the interpreter's ``_exec_call`` into ``Libc.call``.  After a
    # ``longjmp`` the op returns early, so it counts with plain lines.
    "libc_call": """\
st.calls += 1
st.cost += call_cost
args = [$args]
metas = $metas
frame.block = cur_block
frame.index = index
machine._control_transferred = False
result = handler(args, metas, instr)
if machine._control_transferred:
    return -1
?dst _store_result(regs, dst, dst_meta, result)
return nxt
""",
    # The interpreter's ``_exec_ret`` (``$reads`` reads the returned
    # metadata, ``$meta`` writes it to the caller's registers): the
    # returned operands, the saved FP and return address read back from
    # simulated memory (the attack surface the Wilander suite
    # exercises: a corrupted saved FP can point anywhere, so outside the
    # stack segment the interpreter's trapping ``Memory.read_ptr``
    # runs), then frame teardown.  An observed machine takes the
    # generic pop (``on_stack_free``, then the runtime's teardown);
    # otherwise it is inline: pop, clear the metadata of the function's
    # pointer-bearing slots (its frame layout's, as
    # ``SoftBoundRuntime.on_frame_teardown`` does), release the frame's
    # temporal lock, restore sp.  The op returns early when the last
    # frame returns, so it counts with a plain line.
    "ret": """\
st.cost += _COST_RET
?returns value = $value
?!returns value = None
$reads
fp = frame.fp
if stack_base <= fp and fp + 16 <= stack_end:
    off = fp - stack_base
    saved_fp = unpack_u64(stack_data, off)[0]
    ret_addr = unpack_u64(stack_data, off + 8)[0]
else:
    saved_fp = read_ptr(fp)
    ret_addr = read_ptr(fp + 8)
if ret_addr != frame.expected_ret:
    target = addr_to_function.get(ret_addr, "")
    kind = TrapKind.CONTROL_FLOW_HIJACK if target else TrapKind.WILD_JUMP
    raise Trap(kind, "return address overwritten",
               address=ret_addr, target_symbol=target)
?pop pop_frame()
?!pop frames.pop()
?slots base = frame.base
?slots for off, size in pointer_slots:
?slots     clear_range(base + off, size, st)
?release if frame.lock_slot:
?release     release(frame.lock_slot, st)
?!pop machine.sp = frame.base + frame.size
engine._ret_value = value
engine._returned = True
if not frames:
    return -1
caller = frames[-1]
if saved_fp != caller.fp:
    caller.fp = saved_fp
?returns dst_reg = frame.dst_reg
?returns if dst_reg is not None and value is not None:
?returns     caller.regs[dst_reg.uid] = value
dst_meta = frame.dst_meta
if dst_meta is not None:
    $meta
return -1
""",
}

#: The registers a template writes (the bound value holding the uid) and
#: the local it leaves each value in, which later instructions of the
#: region read instead of the register file.
_OUTPUTS = {"value": (("dst", "value"),),
            "divide": (("dst", "value"),),
            "load": (("dst", "value"),),
            "sb_meta_load": (("d_base", "base"), ("d_bound", "bound"),
                             ("d_key", "key"), ("d_lock", "lock"))}

#: Bound names that hold the same object for every instruction of a
#: region, so they are bound once, without a suffix.
_SHARED = frozenset(("st", "limit", "nxt", "slow", "counts", "observers",
                     "memory", "runtime", "facility"))

#: The names whose values belong to one machine, and how a generated
#: factory computes each from the machine's values ``M``
#: (:func:`_machine_values`; ``{sfx}`` is the name's instruction
#: suffix).  Every other name a shape binds is the same on every
#: machine of a program, so a specialization cached on the program
#: (its factory and those values) binds to a new machine with one
#: factory call.
_MACHINE = {name: f'M["{name}"]' for name in (
    "engine", "machine", "st", "limit", "observers", "memory", "runtime",
    "facility", "counts", "segment_for", "cached", "slots", "frames",
    "stack_data", "libc", "addr_to_function", "read_ptr",
    "check_signature", "pop_frame", "clear_range", "acquire", "release")}
_MACHINE.update(slow='partial(_interpret, M["engine"], region)',
                read='_reader(M["memory"], size{sfx})',
                write='_writer(M["memory"], size{sfx})',
                handler='M["libc"].handler(target_name{sfx})')

_HOLE = re.compile(r"int\(\$(\w+)\)|\$(\w+)")
#: A ``$name`` that stands for a code literal when ``name`` is a string flag.
_LITERAL = re.compile(r"\$(\w+)")
#: Names a template line assigns (``a = ``, ``base, bound = ``, ``for x in``).
_ASSIGNED = re.compile(r"\s*(?:for )?(\w+(?:, \w+)*) (?:[-+]?= |in )")
#: A string literal (left alone, but for the names in an f-string's
#: braces) or a name that is not an attribute or an operand hole.
_WORD = re.compile(r'"(?:[^"\\]|\\.)*"|(?<![\w.$])[A-Za-z_]\w*')
_BRACED = re.compile(r"\{(\w+)")
_COUNTER = re.compile(r"st\.(\w+) \+= (\w+)")

#: File names of generated shapes, for tracebacks (see _generate).
_FILE_PREFIX = "repro.vm.engine:region-"
_SERIAL = count()

_TEXTS = {}  # (template, flag items) -> _Text


def _drop_source(key, shape):
    linecache.cache.pop(shape[0].__code__.co_filename, None)


#: shape key -> (closure factory, its parameter names, counter repair).
_SHAPES = LRUCache(SHAPE_CACHE_ENTRIES, on_evict=_drop_source)


#: Bumped by :func:`clear_shapes`; part of every machine signature, so
#: it also retires the specializations cached on programs.
_generation = 0


def clear_shapes():
    """Forget every generated shape (after a template is changed)."""
    global _generation
    _generation += 1
    _TEXTS.clear()
    _SHAPES.clear()
    for name in [name for name in linecache.cache
                 if name.startswith(_FILE_PREFIX)]:
        del linecache.cache[name]


class _Text:
    """A template with its guards resolved and its code literals (the
    string flags) substituted: ``lines`` as ``(mark, line)`` (mark ``=``
    pure, ``+`` batched counter, else ``""``), its operand ``holes`` as
    ``(hole, read through int())``, the names its lines assign, and the
    amount of each batched counter line: a number, or the name of a
    bound value."""

    __slots__ = ("lines", "holes", "assigned", "amounts", "machine")

    def __init__(self, name, flags):
        literals = {flag: value for flag, value in flags.items()
                    if isinstance(value, str)}
        self.lines = []
        for line in TEMPLATES[name].splitlines():
            mark = ""
            if line[:1] in ("=", "+", "?"):
                head, _, line = line.partition(" ")
                if head[0] in "=+":
                    mark, head = head[0], head[1:]
                if head and bool(flags[head.lstrip("?!")]) == head.startswith("?!"):
                    continue
            newline = "\n" + _indent(line)
            line = _LITERAL.sub(lambda m: literals.get(m.group(1), m.group())
                                .replace("\n", newline), line)
            self.lines += [(mark, part) for part in line.split("\n")
                           if part.strip()]
        holes = {}  # hole -> whether any use reads it through int()
        assigned = set()
        amounts = []
        for mark, line in self.lines:
            for m in _HOLE.finditer(line):
                hole = m.group(1) or m.group(2)
                holes[hole] = holes.get(hole, False) or m.group(1) is not None
            m = _ASSIGNED.match(line)
            if m:
                assigned.update(name.strip() for name in m.group(1).split(","))
            if mark == "+":
                amount = _COUNTER.fullmatch(line).group(2)
                amounts.append(int(amount) if amount.isdigit()
                               else globals().get(amount, amount))
        self.holes = tuple(holes.items())
        self.assigned = frozenset(assigned)
        self.amounts = tuple(amounts)
        self.machine = frozenset(m.group() for _, line in self.lines
                                 for m in _WORD.finditer(line)
                                 if m.group() in _MACHINE)


def _text(text_key):
    text = _TEXTS.get(text_key)
    if text is None:
        text = _TEXTS[text_key] = _Text(text_key[0], dict(text_key[1]))
    return text


def _rename(line, names, sfx):
    """Suffix every name in ``names`` that ``line`` uses, in code and in
    f-string braces."""
    def word(m):
        text = m.group()
        if text[0] != '"':
            return text + sfx if text in names else text
        if line[m.start() - 1:m.start()] != "f":
            return text
        return _BRACED.sub(lambda b: "{" + b.group(1) + sfx
                           if b.group(1) in names else b.group(), text)

    return _WORD.sub(word, line)


def _render(line, kinds, sfx, fallback):
    """Fill the operand holes of one line: ``kinds`` maps each hole to
    ``r``/``c``/``a`` (register/constant/trapping accessor, ``f`` added
    when the value may be a float) or ``=local,`` (a value an earlier
    instruction of the region left in a local, ``f`` likewise)."""
    def fill(m):
        hole = m.group(1) or m.group(2)
        kind = kinds[hole]
        if kind[0] == "=":
            text, _, kind = kind[1:].partition(",")
        elif kind[0] == "r":
            text = (f"regs.get(r_{hole}{sfx}, 0)" if fallback
                    else f"regs[r_{hole}{sfx}]")
        elif kind[0] == "c":
            text = f"c_{hole}{sfx}"
        else:
            return f"a_{hole}{sfx}(regs)"
        return f"int({text})" if m.group(1) and kind[-1:] == "f" else text

    return _HOLE.sub(fill, line)


def _indent(line):
    return line[:len(line) - len(line.lstrip())]


def _source(key, names):
    """The source of one region shape's closure factory.  ``key`` holds
    one ``(text key, operand kinds, batched amounts)`` per instruction
    and ``names`` the names of each instruction's bound values (any
    binding of the shape: those its lines use are the same in all).
    Returns the source, the names the factory takes after ``M`` and
    ``repair`` (in order), the counter marks and the line number of the
    op body's first line (see :func:`_repair`)."""
    prelude, body, reads, marks = [], [], [], []
    totals = {}
    candidates = {"nxt", "region"}
    machine = {("st", ""), ("limit", ""), ("slow", "")}

    def flush():
        # Adjacent register reads share one try: the fallback redoes
        # them all with ``get`` (reads are pure, so that is the same).
        if reads:
            indent = _indent(reads[0][0])
            body.extend([indent + "try:"] + ["    " + text for text, _ in reads]
                        + [indent + "except KeyError:"]
                        + ["    " + fallback for _, fallback in reads])
            reads.clear()

    for k, ((text_key, kinds, batched), bound) in enumerate(zip(key, names)):
        flush()
        marks.append((len(body), None, 0))  # instruction k starts
        text = _text(text_key)
        sfx = f"_{k}"
        kinds = dict(zip([hole for hole, _ in text.holes], kinds))
        for hole, kind in kinds.items():
            if kind[0] in "rca":
                candidates.add(f"{kind[0]}_{hole}{sfx}")
        rename = (bound | text.assigned | text.machine) - _SHARED
        candidates.update(name if name in _SHARED else name + sfx
                          for name in bound)
        machine.update((name, "" if name in _SHARED else sfx)
                       for name in text.machine)
        hoist = kinds and all(kind[0] == "c" for kind in kinds.values())
        amounts = iter(batched)
        for mark, line in text.lines:
            if mark == "+":
                field = _COUNTER.fullmatch(line).group(1)
                amount = next(amounts)
                flush()
                marks.append((len(body), field, amount))
                totals[field] = totals.get(field, 0) + amount
                continue
            line = _rename(line, rename, sfx)
            text_line = _render(line, kinds, sfx, False)
            if hoist and mark == "=":
                prelude.append(text_line)
                continue
            fallback = _render(line, kinds, sfx, True)
            if fallback == text_line or (
                    reads and _indent(text_line) != _indent(reads[0][0])):
                flush()
            if fallback == text_line:
                body.append(text_line)
            else:
                reads.append((text_line, fallback))
    flush()
    write_back = [f"st.{field} += {amount}"
                  for field, amount in totals.items() if amount]
    if body and body[-1].startswith("return "):
        body[-1:-1] = write_back
    elif not (body and body[-1].startswith("raise ")):
        body += write_back + ["return nxt"]
    # The factory reads each machine name the op uses from ``M``.
    prelude[:0] = [f"{name}{sfx} = " + _MACHINE[name].replace("{sfx}", sfx)
                   for name, sfx in sorted(machine)]
    used = set(re.findall(r"\w+", "\n".join(prelude + body)))
    params = sorted(name for name in candidates if name in used)
    head = ([f"def factory({', '.join(['M', 'repair'] + params)}):"]
            + ["    " + line for line in prelude]
            + ["    def op(frame, regs):",
               f"        n = st.instructions + {len(key)}",
               "        if n > limit:",
               "            return slow(frame, regs)",
               "        st.instructions = n",
               "        try:"])
    source = "\n".join(
        head + ["            " + line for line in body]
        + ["        except BaseException as exc:",
           "            repair(st, exc)",
           "            raise",
           "    return op", ""])
    return source, params, tuple(marks), len(head) + 1


def _generate(key, names):
    """Build the closure factory of one shape.  Its source is not kept:
    a lazy :mod:`linecache` entry regenerates it when a traceback asks,
    and goes when the shape is evicted."""
    source, params, marks, first = _source(key, names)
    filename = f"{_FILE_PREFIX}{next(_SERIAL)}"
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    linecache.cache[filename] = (lambda: _source(key, names)[0],)
    return (namespace["factory"], params,
            partial(_repair, marks, first, len(key)))


def _repair(marks, first, size, st, exc):
    """Make the counters exact after ``exc`` left a region op part way.
    The op wrote ``size`` instructions to ``st`` at entry and batches its
    ``+`` lines; ``marks`` holds ``(body line, None, 0)`` where each
    instruction starts and ``(body line, field, amount)`` where each
    batched line stood (``first`` is the source line of body line 0).
    An instruction counts once it started, as in the interpreter, and a
    batched line counts once the op got past it."""
    line = exc.__traceback__.tb_lineno - first
    started = 0
    for at, field, amount in marks:
        if at > line:
            break
        if field is None:
            started += 1
        else:
            setattr(st, field, getattr(st, field) + amount)
    st.instructions -= size - started


def _bind_region(region, engine, function):
    """Specialize the slot ``region`` on ``engine``'s machine: one call
    of its op's factory with the machine's values and the values the
    slot binds on every machine of its signature, which the first such
    machine computes (the slot's ``build``, or :func:`_region_entry`)."""
    entry = region.entries.get(engine.signature)
    if entry is None:
        entry = region.entries[engine.signature] = (
            region.build or _region_entry)(region, engine, function)
    factory, args = entry
    return factory(engine.values, *args)


def _region_entry(region, engine, function):
    """The entry of a straight-line region: each instruction bound by
    its opcode's binder (:data:`_BINDERS`)."""
    return _entry(region, engine, [
        _BINDERS[instr.opcode](engine, function, instr, region.offsets,
                               region.block)
        for instr in region.instrs])


def _entry(region, engine, bindings):
    """Look up (or generate) the shape of ``region`` from its
    instructions' ``bindings`` (what their binders return, see below)
    and return its factory with the bound values it takes after the
    machine's values."""
    bound = {"nxt": region.nxt, "region": region}
    forwards = {}  # register uid -> the local holding its value
    key, names = [], []
    for k, (instr, (name, flags, values, *named)) in enumerate(
            zip(region.instrs, bindings)):
        operands = named[0] if named else {}
        text_key = (name, tuple(flags.items()))
        text = _text(text_key)
        sfx = f"_{k}"
        kinds = tuple([_bind_operand(
            bound, hole + sfx,
            operands[hole] if hole in operands else getattr(instr, hole),
            forwards, engine, as_int) for hole, as_int in text.holes])
        batched = tuple([values[amount] if isinstance(amount, str) else amount
                         for amount in text.amounts])
        for value_name, value in values.items():
            bound[value_name if value_name in _SHARED
                  else value_name + sfx] = value
        for out, local in _OUTPUTS.get(name, ()):
            if out in values:
                forwards[values[out]] = local + sfx
        key.append((text_key, kinds, batched))
        names.append(values.keys())
    key = tuple(key)
    shape = _SHAPES.get(key)
    if shape is None:
        shape = _SHAPES.put(key, _generate(key, tuple(map(frozenset, names))))
    factory, params, repair = shape
    return factory, (repair, *[bound[name] for name in params])


def _bind_operand(bound, name, operand, forwards, engine, as_int):
    """Bind the operand hole ``name`` (hole plus suffix) and return its
    kind: ``r`` register, ``c`` constant (symbols resolve to constant
    addresses), ``=local,`` a register an earlier instruction of the
    region left in ``local``, each with ``f`` when the template reads it
    ``as_int`` and its static type allows a float; ``a`` the accessor of
    an unresolved symbol, which traps when executed."""
    if isinstance(operand, Register):
        local = forwards.get(operand.uid)
        if local is not None:
            kind = f"={local},"
        else:
            bound["r_" + name] = operand.uid
            kind = "r"
    elif isinstance(operand, Const):
        bound["c_" + name] = operand.value
        kind = "c"
    else:
        addrs = engine.machine.symbol_addrs
        if operand.name in addrs:
            bound["c_" + name] = addrs[operand.name] + operand.addend
            return "c"
        bound["a_" + name] = partial(_unresolved, operand.name)
        return "a"
    if as_int and (operand.type is None or operand.type.is_float):
        kind += "f"
    return kind


def _unresolved(name, regs):
    """Evaluate a symbol the loader did not resolve: trap, as the
    interpreter does."""
    raise Trap(TrapKind.SEGFAULT, f"unresolved symbol {name}")


# ---------------------------------------------------------------------------
# Binders: ``(engine, function, instr, offsets, block) -> (template, flags,
# bound values)``.  Flags select template lines (and supply the code
# literals, such as ``$expr``); the bound values must cover every name
# the selected lines use but the machine names (:data:`_MACHINE`), and
# be the same on every machine of the engine's signature.  A fourth
# element, when present, maps each hole that is not an attribute of the
# instruction to its operand (the call and ret binders below).
# ---------------------------------------------------------------------------


def _value(instr, expr, cost=None, irtype=None, **values):
    """The ``value`` template: ``dst = expr``, wrapped to ``irtype``
    when given (pointers are masked but not sign-wrapped)."""
    values["dst"] = instr.dst.uid
    wrap = False
    if irtype is not None:
        bits = irtype.size * 8
        values.update(mask=(1 << bits) - 1, sbit=1 << (bits - 1), span=1 << bits)
        wrap = irtype.kind != "ptr"
    if cost is not None:
        values["cost"] = cost
    return "value", {"expr": expr, "wrap": wrap, "cost": cost is not None}, values


def _trap(msg):
    return "trap", {}, {"msg": msg}


def _profiled(engine, instr, opcode, values):
    """Bind the ``?profile`` counter's key when a site profile is
    attached (its ``counts`` are a machine value)."""
    if engine.machine.site_profile is None:
        return False
    values["pkey"] = (opcode,) + tuple(site_of(instr))
    return True


def _bind_alloca(engine, function, instr, *_):
    return _value(instr, "frame.base + offset",
                  offset=_frame_layout(function).offsets[instr.dst.uid])


def _bind_mov(engine, function, instr, *_):
    return _value(instr, "$src")  # mov costs 0 units


def _bind_gep(engine, function, instr, *_):
    return _value(instr, "(int($base) + int($offset)) & _M64", _COST_GEP)


_PLAIN_PREDS = {
    "eq": "==", "feq": "==", "ne": "!=", "fne": "!=",
    "slt": "<", "flt": "<", "sle": "<=", "fle": "<=",
    "sgt": ">", "fgt": ">", "sge": ">=", "fge": ">=",
}
_UNSIGNED_PREDS = {"ult": "<", "ule": "<=", "ugt": ">", "uge": ">="}


def _bind_cmp(engine, function, instr, *_):
    pred = instr.pred
    if pred in _UNSIGNED_PREDS:
        umask = (1 << (_operand_type(instr.a, instr.b).size * 8)) - 1
        return _value(instr, "1 if (int($a) & umask) %s (int($b) & umask) "
                      "else 0" % _UNSIGNED_PREDS[pred], _COST_CMP, umask=umask)
    if pred in _PLAIN_PREDS:
        return _value(instr, "1 if $a %s $b else 0" % _PLAIN_PREDS[pred],
                      _COST_CMP)
    return _trap(f"bad cmp {pred}")


def _fdiv(a, b):
    if b != 0.0:
        return a / b
    return float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")


#: The interpreter's integer ALU (:data:`~repro.vm.machine.INT_OPERATORS`)
#: inlined: each operand read through ``int()``, the result masked.
_INT_EXPRS = {op: "(%s) & mask" % re.sub(r"\b([ab])\b", r"int($\1)", expr)
              for op, expr in INT_OPERATORS.items()}
_SHIFTS = {"lshr": "((int($a) & mask) >> ($b & 63)) & mask",
           "ashr": "(int($a) >> ($b & 63)) & mask"}
_FLOAT_OPS = {"fadd": "$a + $b", "fsub": "$a - $b", "fmul": "$a * $b",
              "fdiv": "_fdiv($a, $b)"}
_DIVIDES = {"sdiv": "q", "srem": "a - q * b", "udiv": "a // b", "urem": "a % b"}


def _bind_binop(engine, function, instr, *_):
    op = instr.op
    cost = OP_COSTS.get("binop." + op)
    dst_type = instr.dst.type
    if op in _INT_EXPRS:
        return _value(instr, _INT_EXPRS[op], cost, dst_type)
    if op in _SHIFTS:
        return _value(instr, _SHIFTS[op], cost, dst_type)
    if op in _FLOAT_OPS:
        return _value(instr, _FLOAT_OPS[op], cost)
    if op in _DIVIDES:
        _, flags, values = _value(instr, "", cost, dst_type)
        return "divide", {"expr": _DIVIDES[op], "unsigned": op[0] == "u",
                          "wrap": flags["wrap"]}, values
    return _trap(f"bad binop {op}")


_CASTS = dict.fromkeys(("trunc", "sext", "bitcast", "ptrtoint", "inttoptr",
                        "fptosi", "fptoui"), "int($src) & mask")
_CASTS.update(zext="int($src) & src_mask & mask")
_TO_FLOAT = {"sitofp": "float(int($src))",
             "uitofp": "float(int($src) & src_mask)"}


def _bind_cast(engine, function, instr, *_):
    kind = instr.kind
    src_type = (instr.src.type
                if isinstance(instr.src, (Register, Const)) else I64)
    src_mask = (1 << (src_type.size * 8)) - 1
    if kind in _CASTS:
        return _value(instr, _CASTS[kind], _COST_CAST, instr.dst.type,
                      src_mask=src_mask)
    if kind in _TO_FLOAT:
        return _value(instr, _TO_FLOAT[kind], _COST_CAST, src_mask=src_mask)
    return _trap(f"bad cast {kind}")


def _bind_load(engine, function, instr, *_):
    irtype = instr.type
    size = irtype.size
    if irtype.is_float:
        codec = _F64
    else:
        codec = _SCALAR_CODECS.get((8, False) if irtype.is_ptr else (size, True))
    values = {"dst": instr.dst.uid, "size": size}
    if codec is not None:
        values["unpack"] = codec.unpack_from
    return "load", {"obs": bool(engine.observers), "codec": codec is not None,
                    "ptrval": instr.is_pointer_value}, values


def _bind_store(engine, function, instr, *_):
    irtype = instr.type
    size = irtype.size
    codec = _F64 if irtype.is_float else _SCALAR_CODECS.get((size, False))
    runtime = engine.machine.sb_runtime
    ptrval = instr.is_pointer_value
    pstore = not ptrval and runtime is not None and runtime.observes_stores
    values = {"size": size, "vmask": (1 << (size * 8)) - 1}
    if codec is not None:
        values["pack_into"] = codec.pack_into
    return "store", {"float": irtype.is_float, "obs": bool(engine.observers),
                     "codec": codec is not None, "ptrval": ptrval,
                     "pstore": pstore}, values


def _reader(memory, size):
    """The read of a scalar width without a codec (the ``read`` value)."""
    return lambda addr: memory.read_int(addr, size, signed=True)


def _writer(memory, size):
    """The write of a scalar width without a codec (``write``)."""
    return lambda addr, value: memory.write_int(addr, value, size)


def _bind_memcopy(engine, function, instr, *_):
    size = instr.size
    runtime = engine.machine.sb_runtime
    cost = (OP_COSTS["memcopy.base"]
            + OP_COSTS["memcopy.per_8_bytes"] * max(size // 8, 1))
    return "memcopy", {
        "obs": bool(engine.observers), "sb": runtime is not None,
        "pstore": runtime is not None and runtime.observes_stores,
    }, {"size": size, "ctype": instr.ctype, "cost": cost}


def _bind_br(engine, function, instr, offsets, block):
    # In-function branches resolve to flat offsets at compile time and
    # never leave the inner dispatch loop.
    return "br", {}, {"target": offsets[instr.label]}


def _bind_cbr(engine, function, instr, offsets, block):
    return "cbr", {}, {"if_true": offsets[instr.true_label],
                       "if_false": offsets[instr.false_label]}


def _bind_unreachable(engine, function, instr, offsets, block):
    return _trap(f"in {function.name}/{block.label}")


def _bind_sb_check(engine, function, instr, *_):
    fnptr = instr.is_fnptr_check
    runtime = engine.machine.sb_runtime
    values = {"access_kind": instr.access_kind,
              "check_cost": _COST_FNPTR if fnptr else OP_COSTS[
                  getattr(runtime, "check_cost_key", "sb.check")]}
    return "sb_check", {"profile": _profiled(engine, instr, "sb_check", values),
                        "fnptr": fnptr}, values


def _bind_sb_temporal_check(engine, function, instr, *_):
    # The lock table dict (the machine value ``slots``) is bound
    # directly: the liveness predicate inlines to one dict probe plus a
    # compare.
    values = {"access_kind": instr.access_kind,
              "tcost": OP_COSTS["sb.temporal.check"]}
    return "sb_temporal_check", {
        "profile": _profiled(engine, instr, "sb_temporal_check", values)}, values


def _bind_sb_meta_load(engine, function, instr, *_):
    temporal = instr.dst_key is not None
    values = {"d_base": instr.dst_base.uid, "d_bound": instr.dst_bound.uid}
    if temporal:
        values.update(d_key=instr.dst_key.uid, d_lock=instr.dst_lock.uid)
    return "sb_meta_load", {
        "profile": _profiled(engine, instr, "sb_meta_load", values),
        "temporal": temporal}, values


def _bind_sb_meta_store(engine, function, instr, *_):
    return "sb_meta_store", {"temporal": instr.key is not None}, {}


_BINDERS = {
    "alloca": _bind_alloca,
    "mov": _bind_mov,
    "gep": _bind_gep,
    "cmp": _bind_cmp,
    "binop": _bind_binop,
    "cast": _bind_cast,
    "load": _bind_load,
    "store": _bind_store,
    "memcopy": _bind_memcopy,
    "br": _bind_br,
    "cbr": _bind_cbr,
    "unreachable": _bind_unreachable,
    "sb_check": _bind_sb_check,
    "sb_temporal_check": _bind_sb_temporal_check,
    "sb_meta_load": _bind_sb_meta_load,
    "sb_meta_store": _bind_sb_meta_store,
}




# ---------------------------------------------------------------------------
# Frame transfer: the entries of ret and call slots, each generated as a
# one-instruction region (:func:`_entry`) unless a call is one only the
# interpreter's handler covers.
# ---------------------------------------------------------------------------


def _ret_entry(slot, engine, function):
    """Specialize a ``ret`` for machines of ``engine``'s signature: its
    returned operands, the stack geometry and the slots it clears."""
    instr = slot.instrs[0]
    runtime = engine.machine.sb_runtime
    observed = bool(engine.observers)
    stack = engine.memory.stack
    slots = ()
    if runtime is not None and not observed:
        slots = _frame_layout(function).pointer_slots
    metas = getattr(instr, "sb_meta", None) or ()
    names = [f"meta_{k}" for k in range(len(metas))]
    if metas:
        meta = (["cregs = caller.regs", f"if len(dst_meta) == {len(metas)}:"]
                + [f"    cregs[dst_meta[{k}].uid] = {name}"
                   for k, name in enumerate(names)]
                + ["else:", "    _write_meta(cregs, dst_meta, (%s))"
                   % "".join(name + ", " for name in names)])
    else:
        meta = ["_write_meta(caller.regs, dst_meta, ())"]
    flags = {
        "reads": "\n".join(f"{name} = ${name}" for name in names),
        "meta": "\n".join(meta), "returns": instr.value is not None,
        "pop": observed, "slots": bool(slots),
        "release": runtime is not None and runtime.temporal and not observed}
    return _entry(slot, engine, [("ret", flags, {
        "pointer_slots": slots, "stack_base": stack.base,
        "stack_end": stack.end,
        "unpack_u64": _SCALAR_CODECS[(8, False)].unpack_from,
    }, dict(zip(names, metas)))])


def _call_entry(slot, engine, function):
    """Specialize a call for machines of ``engine``'s signature: a
    direct call to a non-variadic module function on an unobserved
    machine is the ``call`` template, a direct call to a libc routine
    the ``libc_call`` template, when no argument names an unresolved
    symbol; any other call runs the interpreter's ``call`` handler
    (:func:`_interpreted`)."""
    instr = slot.instrs[0]
    machine = engine.machine
    runtime = machine.sb_runtime
    arity = None if runtime is None else runtime.meta_arity
    call_cost = _COST_CALL + _COST_CALL_ARG * len(instr.args)
    functions = machine.module.functions
    target_name = instr.callee
    if (target_name is not None and runtime is not None
            and f"_sb_{target_name}" in functions):
        target_name = f"_sb_{target_name}"
    target = functions.get(target_name)
    addrs = machine.symbol_addrs
    if target_name is None or not all(
            isinstance(a, (Register, Const))
            or (isinstance(a, SymbolRef) and a.name in addrs)
            for a in instr.args):
        return _interpreted, (slot,)
    if target is not None and not target.varargs and not engine.observers:
        site = machine._site_id(machine._call_site_key(function, instr))
        return _entry(slot, engine, [_bind_call(
            engine, instr, target, _call_plan(instr, target, arity), site,
            call_cost)])
    if target is None and hasattr(Libc, "_do_" + target_name):
        return _entry(slot, engine, [_bind_builtin(
            engine, instr, target_name, arity, slot.block, slot.nxt - 1,
            call_cost)])
    return _interpreted, (slot,)


def _call_plan(instr, target, arity):
    """What a direct call binds in ``target``'s new frame: ``(register
    uid, argument position)`` pairs, position None for a zero-filled
    companion.  The interpreter's own convention applied to argument
    positions: ``Machine._split_call_metadata`` (skipped when ``arity``
    is None, on a machine without a SoftBound runtime), then
    :func:`~repro.vm.machine.param_bindings`."""
    positions = list(range(len(instr.args)))
    metas = None
    if arity is not None:
        positions, metas = Machine._split_call_metadata(positions, instr, arity)
    return tuple(param_bindings(target, positions, metas,
                                2 if arity is None else arity, zero=None))


def _bind_call(engine, instr, target, plan, site, call_cost):
    """Bind a direct call to the non-variadic module function ``target``
    (no observers, every argument resolvable): the plan's sources — a
    caller register, an argument's constant or resolved symbol address,
    or zero — as the holes ``$p0``, ``$p1``, ... and the frame
    constants."""
    runtime = engine.machine.sb_runtime
    layout = _frame_layout(target)
    frame_meta = getattr(target, "sb_frame_meta", None)
    lock = (runtime is not None and runtime.temporal
            and frame_meta is not None)
    values = {
        "call_cost": call_cost, "target": target, "target_name": target.name,
        "frame_size": layout.va_offset, "fp_off": layout.fp_offset,
        "allocas": layout.allocas, "stack_base": engine.memory.stack.base,
        "pack_u64": _SCALAR_CODECS[(8, False)].pack_into, "site": site,
        "dst": instr.dst, "dst_meta": getattr(instr, "sb_dst_meta", None),
        "entry_block": target.entry, "new_frame_of": Frame.__new__,
        "instr": instr,
    }
    if lock:
        values.update(frame_key=frame_meta[0].uid, frame_lock=frame_meta[1].uid)
    operands = {}
    for k, (uid, pos) in enumerate(plan):
        values[f"u{k}"] = uid
        operands[f"p{k}"] = _ZERO if pos is None else instr.args[pos]
    # The dynamic signature check (paper Section 5.2) runs
    # ``Machine._check_call_signature`` when both sides carry one.
    has_sig = (getattr(instr, "sb_call_signature", None) is not None
               and getattr(target, "sb_signature", None) is not None)
    return "call", {
        "plan": ", ".join(f"u{k}: $p{k}" for k in range(len(plan))),
        "sig": has_sig, "lock": lock}, values, operands


def _builtin_plan(instr, arity):
    """Which argument positions a builtin call passes as the routine's
    arguments, and which as each argument's metadata: ``Libc.call``'s
    split of the SoftBound convention applied once to positions
    (metadata None on a machine without a SoftBound runtime, ``arity``
    None)."""
    positions = list(range(len(instr.args)))
    if arity is None:
        return tuple(positions), None
    positions, metas = Machine._split_call_metadata(positions, instr, arity)
    if metas is None:
        metas = [None] * len(positions)
    return tuple(positions), tuple(metas)


def _bind_builtin(engine, instr, target_name, arity, cur_block, index,
                  call_cost):
    """Bind a direct call to the libc routine ``target_name`` (every
    argument resolvable): argument ``k`` is the hole ``$ak``."""
    positions, metas = _builtin_plan(instr, arity)
    if metas is not None:
        metas = "[%s]" % ", ".join(
            "None" if group is None
            else "(%s)" % "".join(f"$a{k}, " for k in group)
            for group in metas)
    return "libc_call", {
        "args": ", ".join(f"$a{k}" for k in positions),
        "metas": metas or "None", "dst": instr.dst is not None,
    }, {"call_cost": call_cost, "cur_block": cur_block, "index": index,
        "dst": instr.dst, "dst_meta": getattr(instr, "sb_dst_meta", None),
        "instr": instr, "target_name": target_name,
        }, {f"a{k}": operand for k, operand in enumerate(instr.args)}
