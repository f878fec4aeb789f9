"""The SoftBound compile-time transformation (paper Sections 3 and 5).

A strictly intra-procedural IR pass.  For every pointer-typed value it
maintains base/bound companion values; it inserts:

* a dereference check before every memory operation (or only before
  stores, in store-only mode) — ``(p < base || p + size > bound)`` with
  the access size included (Section 3.1);
* a disjoint-metadata table *lookup* after every load of a pointer and a
  table *update* after every store of a pointer (Section 3.2);
* bound creation at ``malloc`` call sites and address-taken objects
  (allocas, globals, string literals) (Section 3.1);
* bound inheritance through pointer arithmetic, assignment and casts,
  with sub-object *shrinking* at struct-field address computations
  (Section 3.1, "Shrinking Pointer Bounds");
* extra base/bound parameters on every function with pointer arguments,
  renaming the function ``_sb_<name>`` (Section 3.3) — the renaming is
  what makes separate compilation work, since the linker matches caller
  and callee by name;
* pointer returns annotated with their metadata (the paper's
  three-element return struct, modelled as a multi-value return);
* the base==bound function-pointer encoding check before indirect calls
  (Section 5.2);
* ``setbound()`` rewriting (Section 5.2, programmer escape hatch).

With ``config.temporal`` every pointer additionally carries a
``(key, lock)`` pair — the lock-and-key temporal discipline
(:mod:`repro.temporal`) — through exactly the same channels: companion
registers/aliases, widened disjoint-table entries (the same
``sb_meta_load``/``sb_meta_store`` instructions gain key/lock slots),
extra call arguments and return values, and an ``sb_temporal_check``
emitted immediately after each spatial check.  Stack pointers key on a
per-frame lock materialized in two function-level registers
(``func.sb_frame_meta``) that the VM binds at frame entry; globals and
functions carry the immortal global key/lock as constants.

Metadata propagation for values that never touch memory is *compile
time* work: single-assignment registers simply alias their source's
companion values (no code emitted), mirroring how LLVM register renaming
makes SSA metadata propagation free; only multiply-assigned registers
(loop-carried pointers after register promotion) get materialized
companion registers updated with register-register moves.
"""

from ..frontend.builtins import BUILTIN_SIGNATURES
from ..ir import instructions as ins
from ..ir.irtypes import I64, PTR
from ..ir.module import Param
from ..ir.values import Const, Register, SymbolRef
from ..temporal import GLOBAL_KEY, GLOBAL_LOCK

_NULL_META = (Const(0, PTR), Const(0, PTR))
#: Temporal metadata of pointers without provenance (integers cast to
#: pointers, wild loads): an invalid key that can never match a live
#: lock — but such pointers carry NULL spatial bounds and trap
#: spatially first, since the spatial check precedes the temporal one.
_NULL_TMETA = (Const(0, I64), Const(0, I64))
#: Temporal metadata of objects that are never deallocated: globals,
#: functions, and setbound-blessed pointers.
_GLOBAL_TMETA = (Const(GLOBAL_KEY, I64), Const(GLOBAL_LOCK, I64))

#: Opcodes the obs check-site profiler attributes to source sites.
_PROFILED_OPS = frozenset(("sb_check", "sb_temporal_check", "sb_meta_load"))


class SoftBoundTransform:
    def __init__(self, config, plan=None):
        self.config = config
        # The checker policy's instrumentation plan owns what is
        # *emitted* at each dereference site and how wide the
        # per-pointer metadata is; the transform below owns the
        # propagation mechanics.  Resolved through the policy registry
        # unless the caller injects one (tests, ad-hoc plans).
        if plan is None:
            from ..policy.instrumentation import plan_for_config

            plan = plan_for_config(config)
        self.plan = plan

    # -- module level ------------------------------------------------------

    def run(self, module):
        """Transform every function in ``module`` in place."""
        original = dict(module.functions)
        module.sb_aliases = {}
        for name, func in original.items():
            if func.sb_transformed:
                continue
            _FunctionTransform(self, module, func).run()
            new_name = f"_sb_{name}"
            func.name = new_name
            func.sb_transformed = True
            # Pointer/non-pointer argument signature, verified dynamically
            # at indirect calls when encode_fnptr_signature is on (the
            # paper's Section 5.2 "ultimate solution" extension).
            func.sb_signature = (
                tuple(bool(p.ctype is not None and p.ctype.is_pointer)
                      for p in func.params),
                func.varargs,
            )
            module.sb_aliases[name] = new_name
        module.functions = {f.name: f for f in original.values()}
        from ..ir.module import invalidate_compiled

        invalidate_compiled(module)  # blocks were rewritten in place
        return module


class _FunctionTransform:
    def __init__(self, parent, module, func):
        self.config = parent.config
        self.plan = parent.plan
        self.temporal = parent.plan.temporal
        self.module = module
        self.func = func
        self.meta = {}   # register uid -> (base Value, bound Value)
        self.tmeta = {}  # register uid -> (key Value, lock Value)
        self.multi_def = self._find_multi_def()
        self.copy_sources = {}  # pointer Mov dst uid -> source Register
        self.copy_dests = {}    # source uid -> [pointer Mov dst Registers]
        self.load_sources = {}  # pointer Load dst uid -> address operand
        self.out = None  # current output instruction list
        # Per-frame lock registers, created on first alloca (temporal).
        self._frame_meta = None
        # Block-local metadata availability: pointer-slot address key ->
        # the slot's full entry — (base, bound) spatially, widened to
        # (base, bound, key, lock) temporally — already in registers.
        # Emitting one canonical SbMetaLoad per slot per block (instead
        # of one per pointer load) is what makes the shapes hoist- and
        # dedup-friendly downstream (checkelim, licm), and it is only
        # sound for *disjoint* metadata facilities, where program stores
        # cannot touch the table: the inline-metadata baselines
        # (fatptr_*) observe every store and must re-read.
        self._meta_cache = {}
        self._meta_cache_enabled = parent.plan.disjoint_metadata
        # Per-function emission sequence for obs_site stamps (keeps
        # distinct checks on one source line apart in the profiler).
        self._site_seq = 0

    # -- definition-count prepass --------------------------------------------

    def _find_multi_def(self):
        counts = {}
        for instr in self.func.instructions():
            dst = getattr(instr, "dst", None)
            if dst is not None:
                counts[dst.uid] = counts.get(dst.uid, 0) + 1
        return {uid for uid, count in counts.items() if count > 1}

    # -- metadata helpers -----------------------------------------------------------

    def _meta_of(self, value):
        """The (base, bound) for a pointer-typed operand."""
        if isinstance(value, Const):
            return _NULL_META  # integers-as-pointers get NULL bounds (§5.2)
        if isinstance(value, SymbolRef):
            return self._symbol_meta(value)
        if isinstance(value, Register):
            return self.meta.get(value.uid, _NULL_META)
        return _NULL_META

    def _tmeta_of(self, value):
        """The (key, lock) for a pointer-typed operand."""
        if isinstance(value, SymbolRef):
            return _GLOBAL_TMETA  # globals and functions never die
        if isinstance(value, Register):
            return self.tmeta.get(value.uid, _NULL_TMETA)
        return _NULL_TMETA

    def _symbol_meta(self, symref):
        name = symref.name
        gvar = self.module.globals.get(name)
        if gvar is not None:
            return (SymbolRef(name), SymbolRef(name, addend=max(gvar.size, 1)))
        # Function symbol: base == bound encoding (paper Section 5.2).
        return (SymbolRef(name), SymbolRef(name))

    def _set_meta(self, dst_reg, base, bound):
        """Record metadata for a freshly defined pointer register.

        Single-assignment registers alias the values (free, compile-time
        propagation).  Multiply-assigned registers write through fixed
        companion registers.
        """
        if dst_reg.uid in self.multi_def:
            companions = self.meta.get(dst_reg.uid)
            if not (companions and isinstance(companions[0], Register)
                    and companions[0].hint.endswith(".sbb")):
                companions = (
                    self.func.new_reg(PTR, f"{dst_reg.uid}.sbb"),
                    self.func.new_reg(PTR, f"{dst_reg.uid}.sbe"),
                )
                self.meta[dst_reg.uid] = companions
            self.out.append(ins.Mov(dst=companions[0], src=base))
            self.out.append(ins.Mov(dst=companions[1], src=bound))
        else:
            self.meta[dst_reg.uid] = (base, bound)

    def _set_tmeta(self, dst_reg, key, lock):
        """Record temporal metadata, mirroring :meth:`_set_meta`."""
        if not self.temporal:
            return
        if dst_reg.uid in self.multi_def:
            companions = self.tmeta.get(dst_reg.uid)
            if not (companions and isinstance(companions[0], Register)
                    and companions[0].hint.endswith(".sbk")):
                companions = (
                    self.func.new_reg(I64, f"{dst_reg.uid}.sbk"),
                    self.func.new_reg(I64, f"{dst_reg.uid}.sbl"),
                )
                self.tmeta[dst_reg.uid] = companions
            self.out.append(ins.Mov(dst=companions[0], src=key))
            self.out.append(ins.Mov(dst=companions[1], src=lock))
        else:
            self.tmeta[dst_reg.uid] = (key, lock)

    def _fresh_meta_regs(self, tag):
        return self.func.new_reg(PTR, tag + ".sbb"), self.func.new_reg(PTR, tag + ".sbe")

    def _fresh_tmeta_regs(self, tag):
        return self.func.new_reg(I64, tag + ".sbk"), self.func.new_reg(I64, tag + ".sbl")

    def _frame_tmeta(self):
        """The function's per-frame (key, lock) registers, created once
        and recorded on the function for the VM to bind at frame entry
        (the frame push, ``Machine._push_frame`` or the compiled
        engine's specialized call, acquires the frame's lock)."""
        if self._frame_meta is None:
            key = self.func.new_reg(I64, "frame.sbk")
            lock = self.func.new_reg(I64, "frame.sbl")
            self._frame_meta = (key, lock)
            self.func.sb_frame_meta = self._frame_meta
        return self._frame_meta

    # -- block-local metadata availability --------------------------------

    def _slot_key(self, addr):
        """A stable within-block identity for a pointer-slot address, or
        None when the address may be redefined mid-block."""
        if isinstance(addr, Register):
            if addr.uid in self.multi_def:
                return None
            return ("r", addr.uid)
        if isinstance(addr, SymbolRef):
            return ("s", addr.name, getattr(addr, "addend", 0))
        if isinstance(addr, Const):
            return ("c", addr.value)
        return None

    def _meta_value_stable(self, value):
        """True when a cached companion value cannot be overwritten
        later in the block (constants, symbols, single-assignment
        registers)."""
        if isinstance(value, (Const, SymbolRef)):
            return True
        return isinstance(value, Register) and value.uid not in self.multi_def

    def _meta_cache_lookup(self, addr):
        if not self._meta_cache_enabled:
            return None
        key = self._slot_key(addr)
        if key is None:
            return None
        return self._meta_cache.get(key)

    def _meta_cache_record(self, addr, entry):
        """Record a slot's freshly *read* entry (no table write).
        ``entry`` is the full companion tuple — (base, bound) spatially,
        (base, bound, key, lock) temporally."""
        if not self._meta_cache_enabled:
            return
        key = self._slot_key(addr)
        if key is not None and all(self._meta_value_stable(v) for v in entry):
            self._meta_cache[key] = entry

    def _meta_cache_written(self, addr, entry):
        """A table *write* happened: two distinct keys may alias the
        same runtime slot, so everything cached is invalid except the
        entry just written."""
        if not self._meta_cache_enabled:
            return
        self._meta_cache.clear()
        self._meta_cache_record(addr, entry)

    def _meta_cache_clear(self):
        self._meta_cache.clear()

    # -- checks ------------------------------------------------------------------------

    # Public aliases for the instrumentation plan: a plan's
    # ``emit_access_checks`` resolves companion values through these and
    # appends its check instruction(s) to ``self.out``.
    def meta_of(self, value):
        return self._meta_of(value)

    def tmeta_of(self, value):
        return self._tmeta_of(value)

    def _emit_check(self, addr_value, size, access_kind):
        """One dereference site: the policy's plan decides what checks
        to emit (spatial, spatial+temporal, a plugin's own opcode) and
        under which modes (store-only skips loads)."""
        self.plan.emit_access_checks(self, addr_value, size, access_kind)

    # -- the pass ------------------------------------------------------------------------

    def run(self):
        func = self.func
        # Extra parameters for pointer arguments (paper Section 3.3): for
        # each pointer parameter, in order, append a base and a bound —
        # and under temporal checking a key and a lock.
        for param in func.params:
            if param.ctype is not None and param.ctype.is_pointer:
                base = func.new_reg(PTR, f"{param.name}.base")
                bound = func.new_reg(PTR, f"{param.name}.bound")
                func.sb_extra_params.append(Param(register=base, ctype=None, name=f"{param.name}.base"))
                func.sb_extra_params.append(Param(register=bound, ctype=None, name=f"{param.name}.bound"))
                self.meta[param.register.uid] = (base, bound)
                if self.temporal:
                    key = func.new_reg(I64, f"{param.name}.key")
                    lock = func.new_reg(I64, f"{param.name}.lock")
                    func.sb_extra_params.append(
                        Param(register=key, ctype=None, name=f"{param.name}.key"))
                    func.sb_extra_params.append(
                        Param(register=lock, ctype=None, name=f"{param.name}.lock"))
                    self.tmeta[param.register.uid] = (key, lock)
        for block in func.blocks:
            self.out = []
            self._meta_cache_clear()  # availability is block-local
            for instr in block.instructions:
                self._visit(instr)
            block.instructions = self.out
        func._frame_layout = None

    def _visit(self, instr):
        handler = getattr(self, "_visit_" + instr.opcode, None)
        if handler is None:
            self.out.append(instr)
            return
        start = len(self.out)
        handler(instr)
        # Stamp every check/metadata-load this visit emitted with its
        # site identity: (pre-rename function, source line of the
        # guarded instruction, per-function sequence).  The obs
        # profiler keys execution counts on these; copy-based cloning
        # downstream (hoist/widen) preserves them.
        line = getattr(instr, "src_line", None)
        name = self.func.name
        for emitted in self.out[start:]:
            if emitted.opcode in _PROFILED_OPS and not hasattr(emitted, "obs_site"):
                emitted.obs_site = (name, line, self._site_seq)
                self._site_seq += 1

    # -- pointer-creating instructions -------------------------------------------------------

    def _visit_alloca(self, instr):
        self.out.append(instr)
        bound = self.func.new_reg(PTR, f"{instr.name}.sbe")
        self.out.append(ins.Gep(dst=bound, base=instr.dst, offset=Const(instr.size, I64)))
        self._set_meta(instr.dst, instr.dst, bound)
        if self.temporal:
            # Stack pointers key on the frame's lock: the VM acquires it
            # at frame entry and kills it at teardown, so dangling stack
            # pointers trap exactly like dangling heap pointers.
            self._set_tmeta(instr.dst, *self._frame_tmeta())

    def _visit_gep(self, instr):
        self.out.append(instr)
        if instr.field_extent is not None and self.config.shrink_bounds:
            # Sub-object bound shrinking (paper Section 3.1): the pointer
            # to a struct field gets the field's bounds, not the whole
            # object's.
            bound = self.func.new_reg(PTR, "field.sbe")
            self.out.append(ins.Gep(dst=bound, base=instr.dst,
                                    offset=Const(instr.field_extent, I64)))
            self._set_meta(instr.dst, instr.dst, bound)
        else:
            base, bound = self._meta_of(instr.base)
            self._set_meta(instr.dst, base, bound)
        # Pointer arithmetic never changes which allocation a pointer
        # belongs to: the (key, lock) pair is inherited unchanged.
        self._set_tmeta(instr.dst, *self._tmeta_of(instr.base))

    def _visit_cast(self, instr):
        self.out.append(instr)
        if instr.dst.type.is_ptr:
            if instr.kind == "inttoptr":
                # Creating pointers from integers: NULL bounds (§5.2).
                self._set_meta(instr.dst, *_NULL_META)
                self._set_tmeta(instr.dst, *_NULL_TMETA)
            else:
                self._set_meta(instr.dst, *self._meta_of(instr.src))
                self._set_tmeta(instr.dst, *self._tmeta_of(instr.src))

    def _visit_mov(self, instr):
        self.out.append(instr)
        if instr.dst.type.is_ptr:
            if isinstance(instr.src, Register):
                self.copy_sources[instr.dst.uid] = instr.src
                self.copy_dests.setdefault(instr.src.uid, []).append(instr.dst)
            self._set_meta(instr.dst, *self._meta_of(instr.src))
            self._set_tmeta(instr.dst, *self._tmeta_of(instr.src))

    # -- memory operations ---------------------------------------------------------------------

    def _visit_load(self, instr):
        self._emit_check(instr.addr, instr.type.size, "load")
        self.out.append(instr)
        if instr.is_pointer_value:
            cached = self._meta_cache_lookup(instr.addr)
            if cached is not None:
                # The slot's table entry is already in registers:
                # re-reading the table would return the same tuple
                # (program stores cannot write a disjoint table).
                self._set_meta(instr.dst, cached[0], cached[1])
                if self.temporal:
                    self._set_tmeta(instr.dst, cached[2], cached[3])
                self.load_sources[instr.dst.uid] = instr.addr
                return
            base, bound = self._fresh_meta_regs("ld")
            key = lock = None
            if self.temporal:
                key, lock = self._fresh_tmeta_regs("ld")
            self.out.append(ins.SbMetaLoad(addr=instr.addr, dst_base=base,
                                           dst_bound=bound, dst_key=key,
                                           dst_lock=lock))
            self._set_meta(instr.dst, base, bound)
            if self.temporal:
                self._set_tmeta(instr.dst, key, lock)
                self._meta_cache_record(instr.addr, (base, bound, key, lock))
            else:
                self._meta_cache_record(instr.addr, (base, bound))
            self.load_sources[instr.dst.uid] = instr.addr
        elif instr.dst.type.is_ptr:
            # A pointer-shaped value loaded through a non-pointer type
            # (wild cast): no table access, NULL bounds.
            self._set_meta(instr.dst, *_NULL_META)
            self._set_tmeta(instr.dst, *_NULL_TMETA)

    def _visit_store(self, instr):
        self._emit_check(instr.addr, instr.type.size, "store")
        self.out.append(instr)
        if instr.is_pointer_value:
            base, bound = self._meta_of(instr.value)
            if self.temporal:
                key, lock = self._tmeta_of(instr.value)
                self.out.append(ins.SbMetaStore(addr=instr.addr, base=base,
                                                bound=bound, key=key, lock=lock))
                entry = (base, bound, key, lock)
            else:
                self.out.append(ins.SbMetaStore(addr=instr.addr, base=base, bound=bound))
                entry = (base, bound)
            # Forward the stored entry: a reload of this slot later in
            # the block needs no table read.
            self._meta_cache_written(instr.addr, entry)

    def _visit_memcopy(self, instr):
        self._meta_cache_clear()  # the runtime copies table entries
        self._emit_check(instr.src_addr, instr.size, "load")
        self._emit_check(instr.dst_addr, instr.size, "store")
        self.out.append(instr)

    # -- calls and returns ------------------------------------------------------------------------

    def _visit_call(self, instr):
        self._meta_cache_clear()  # the callee may write the table
        if instr.callee == "setbound":
            self._rewrite_setbound(instr)
            return
        # Indirect calls: check the base==bound function-pointer encoding
        # before transferring control (paper Section 5.2).
        if instr.callee is None and instr.callee_reg is not None:
            base, bound = self._meta_of(instr.callee_reg)
            self.out.append(ins.SbCheck(ptr=instr.callee_reg, base=base, bound=bound,
                                        size=Const(0, I64), access_kind="load",
                                        is_fnptr_check=True))
            if self.config.encode_fnptr_signature:
                # Record the call site's view of which arguments are
                # pointers; the machine compares it against the resolved
                # target's declared signature (Section 5.2 extension).
                instr.sb_call_signature = tuple(
                    bool(ct is not None and ct.is_pointer)
                    for ct in instr.arg_ctypes)
        # Append metadata arguments for every pointer argument, in
        # order (paper Section 3.3: driven entirely by the call site):
        # (base, bound) per pointer, widened with (key, lock) under
        # temporal checking.
        meta_args = []
        for i, (arg, ctype) in enumerate(zip(instr.args, instr.arg_ctypes)):
            if ctype is not None and ctype.is_pointer:
                base, bound = self._meta_of(arg)
                meta_args.extend([base, bound])
                if self.temporal:
                    key, lock = self._tmeta_of(arg)
                    meta_args.extend([key, lock])
        instr.args = list(instr.args) + meta_args
        # Direct calls to module functions are renamed to the transformed
        # version; builtin names stay (the VM's libc acts as the wrapper
        # library, paper Section 5.2).
        if instr.callee is not None and instr.callee in self.module.functions:
            instr.sb_renamed = True  # machine redirects via sb_aliases
        # Pointer-returning calls get companion destination registers.
        if instr.dst is not None and instr.dst.type.is_ptr:
            base, bound = self._fresh_meta_regs("ret")
            if self.temporal:
                key, lock = self._fresh_tmeta_regs("ret")
                instr.sb_dst_meta = (base, bound, key, lock)
                self._set_tmeta(instr.dst, key, lock)
            else:
                instr.sb_dst_meta = (base, bound)
            self._set_meta(instr.dst, base, bound)
        self.out.append(instr)

    def _rewrite_setbound(self, instr):
        """setbound(p, size): explicitly set p's bounds (paper §5.2).

        A size of 0 "unbounds" the pointer (bounds become the whole
        address space), letting the programmer bless arbitrary access.
        Blessed pointers also become temporally immortal — the escape
        hatch escapes both halves of the discipline.
        """
        ptr = instr.args[0]
        size = instr.args[1]
        if not isinstance(ptr, Register):
            return  # setbound on a constant has nothing to update
        # The call's pointer operand is usually a copy of the variable's
        # register (register promotion materializes one Mov per use).
        # Update the whole copy web — upward through the chain of sources
        # and downward through every already-made copy of those — so
        # later uses of the variable see the new bounds regardless of
        # which copy they read.
        targets = [ptr]
        seen = {ptr.uid}
        cursor = ptr
        while isinstance(cursor, Register) and cursor.uid in self.copy_sources:
            cursor = self.copy_sources[cursor.uid]
            if not isinstance(cursor, Register) or cursor.uid in seen:
                break
            seen.add(cursor.uid)
            targets.append(cursor)
        frontier = list(targets)
        while frontier:
            node = frontier.pop()
            for dest in self.copy_dests.get(node.uid, ()):
                if dest.uid not in seen:
                    seen.add(dest.uid)
                    targets.append(dest)
                    frontier.append(dest)
        if isinstance(size, Const) and size.value == 0:
            unbounded = (Const(0, PTR), Const((1 << 63), PTR))
            for target in targets:
                self._set_meta(target, *unbounded)
                self._set_tmeta(target, *_GLOBAL_TMETA)
            self._store_setbound_metadata(targets, *unbounded)
            return
        bound = self.func.new_reg(PTR, "setbound.sbe")
        offset = size
        if isinstance(size, Register) and size.type is not I64:
            widened = self.func.new_reg(I64)
            self.out.append(ins.Cast(dst=widened, kind="sext", src=size))
            offset = widened
        self.out.append(ins.Gep(dst=bound, base=ptr, offset=offset))
        for target in targets:
            self._set_meta(target, ptr, bound)
            self._set_tmeta(target, *_GLOBAL_TMETA)
        self._store_setbound_metadata(targets, ptr, bound)

    def _store_setbound_metadata(self, targets, base, bound):
        """When any register in the setbound web was loaded from memory,
        the pointer variable itself lives in memory: refresh its table
        entry too, so later loads of the variable observe the new bounds
        (this is what makes setbound work in an un-promoted build)."""
        stored = set()
        for target in targets:
            addr = self.load_sources.get(target.uid)
            key = addr.uid if isinstance(addr, Register) else repr(addr)
            if addr is not None and key not in stored:
                stored.add(key)
                if self.temporal:
                    self.out.append(ins.SbMetaStore(
                        addr=addr, base=base, bound=bound,
                        key=_GLOBAL_TMETA[0], lock=_GLOBAL_TMETA[1]))
                else:
                    self.out.append(ins.SbMetaStore(addr=addr, base=base, bound=bound))

    def _visit_ret(self, instr):
        if instr.value is not None and self.func.return_type.is_ptr:
            meta = self._meta_of(instr.value)
            if self.temporal:
                meta = meta + self._tmeta_of(instr.value)
            instr.sb_meta = meta
        self.out.append(instr)
