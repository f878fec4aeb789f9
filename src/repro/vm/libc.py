"""Libc implemented over simulated memory.

Every routine operates on :class:`~repro.vm.memory.Memory` bytes, so an
out-of-bounds ``strcpy`` really does corrupt adjacent simulated memory
(the VM layer never checks object extents — that is the checkers' job).

When the module has been SoftBound-transformed, calls to these routines
arrive with base/bound companion arguments appended for every
pointer-typed argument; each handler then behaves as the *library
wrapper* the paper describes (Section 5.2): it checks the full extent of
the operation against the passed bounds once, up front, and handles
metadata (memcpy copies it, free clears it, malloc creates it).
"""

import math

from ..frontend.builtins import BUILTIN_SIGNATURES
from .errors import Trap, TrapKind


class Libc:
    def __init__(self, machine):
        self.machine = machine
        self._handlers = {}  # name -> bound handler (getattr done once)

    def builtin_names(self):
        return BUILTIN_SIGNATURES.keys()

    # -- dispatch ------------------------------------------------------------

    def handler(self, name):
        """The routine ``name`` as ``fn(args, metas, instr)``; traps for
        a name libc does not define."""
        handler = self._handlers.get(name)
        if handler is None:
            handler = getattr(self, "_do_" + name, None)
            if handler is None:
                raise Trap(TrapKind.SEGFAULT, f"call to unknown function {name!r}")
            self._handlers[name] = handler
        return handler

    def call(self, name, args, instr):
        """Run builtin ``name`` on a call's evaluated arguments (the
        interpreter's path; the compiled engine splits a direct call's
        arguments once per call site and calls :meth:`handler`'s
        routine itself)."""
        handler = self.handler(name)
        metas = None
        if self.machine.sb_runtime is not None:
            # One implementation of the SoftBound call-convention split
            # (Machine._split_call_metadata) serves direct calls and
            # wrappers alike; handlers index metas per argument, so
            # normalize "no metadata" to a list of Nones.
            args, metas = self.machine._split_call_metadata(
                args, instr, self.machine.sb_runtime.meta_arity)
            if metas is None:
                metas = [None] * len(args)
        return handler(args, metas, instr)


    def _ret_ptr(self, value, meta):
        """Wrap a pointer return value with metadata when SoftBound is
        active (library wrappers must propagate bounds — and under
        temporal checking the (key, lock) pair — for the pointers they
        return, paper Section 5.2)."""
        runtime = self.machine.sb_runtime
        if runtime is None:
            return value
        if value and meta is not None:
            return (value,) + tuple(meta)
        return (value,) + runtime.null_meta

    def _wrapper_check(self, ptr, size, meta, what):
        """The once-per-call wrapper checks (paper Section 5.2): the
        whole extent against the passed bounds, and — under temporal
        checking — the pointer's lock liveness, both up front."""
        if meta is None:
            return
        base, bound = meta[0], meta[1]
        self.machine.stats.charge("sb.check")
        self.machine.stats.checks += 1
        if ptr < base or ptr + size > bound:
            raise Trap(
                TrapKind.SPATIAL_VIOLATION,
                f"{what}: {size} bytes outside [0x{base:x}, 0x{bound:x})",
                address=ptr,
                source="softbound",
            )
        runtime = self.machine.sb_runtime
        if runtime.temporal and len(meta) >= 4:
            runtime.check_live(what, ptr, meta[2], meta[3],
                               self.machine.stats)

    # -- allocation -------------------------------------------------------------

    def _do_malloc(self, args, metas, instr):
        size = int(args[0])
        mem = self.machine.memory
        ptr = mem.malloc(size)
        self.machine.stats.charge_libc("malloc")
        if ptr is None:
            raise Trap(TrapKind.OUT_OF_MEMORY, f"malloc({size})")
        if ptr:
            for observer in self.machine.observers:
                observer.on_heap_alloc(ptr, size)
        runtime = self.machine.sb_runtime
        if runtime is not None:
            # Paper Section 3.1: base = ptr; bound = ptr + size, or NULL
            # bounds when the allocation failed / returned NULL.
            if ptr == 0:
                return (0,) + runtime.null_meta
            runtime.facility.clear_range(ptr, size, self.machine.stats)
            if runtime.temporal:
                # Key the allocation: pointers derived from this return
                # value stay live exactly until free() kills the lock.
                key, lock = runtime.heap_acquire(ptr, self.machine.stats)
                return (ptr, ptr, ptr + size, key, lock)
            return (ptr, ptr, ptr + size)
        return ptr

    def _do_calloc(self, args, metas, instr):
        count, size = int(args[0]), int(args[1])
        total = count * size
        result = self._do_malloc([total], metas, instr)
        ptr = result[0] if isinstance(result, tuple) else result
        if ptr:
            self.machine.memory.write(ptr, bytes(total))
        self.machine.stats.charge_libc("calloc", total)
        return result

    def _do_realloc(self, args, metas, instr):
        old, size = int(args[0]), int(args[1])
        mem = self.machine.memory
        new_result = self._do_malloc([size], metas, instr)
        new = new_result[0] if isinstance(new_result, tuple) else new_result
        if old and new:
            old_size = mem.allocation_size(old) or 0
            copy = min(old_size, size)
            mem.write(new, mem.read(old, copy))
            self._do_free([old], [metas[0]] if metas else None, instr)
        self.machine.stats.charge_libc("realloc", size)
        return new_result

    def _do_free(self, args, metas, instr):
        ptr = int(args[0])
        mem = self.machine.memory
        size = mem.allocation_size(ptr)
        runtime = self.machine.sb_runtime
        if runtime is not None and runtime.temporal and ptr:
            # Lock-and-key free, in two steps mirroring the formal
            # model's Free rule.  First the freeing pointer's *own*
            # (key, lock) must be live: a stale free — double free, or
            # a dangling pointer whose address has since been handed to
            # a new allocation — traps here, *before* the registry is
            # touched (releasing by raw address alone would kill the
            # new owner's lock and false-positive its next access).
            meta = metas[0] if metas else None
            if meta is not None and len(meta) >= 4:
                runtime.check_live("free", ptr, meta[2], meta[3],
                                   self.machine.stats)
            # Then the address must be a live heap allocation: frees of
            # stack/global pointers (live locks, but never malloc'd)
            # trap here, and the allocation's lock dies.
            runtime.heap_release(ptr, self.machine.stats)
        if ptr and size is not None:
            for observer in self.machine.observers:
                observer.on_heap_free(ptr, size)
        mem.free(ptr)
        self.machine.stats.charge_libc("free")
        if runtime is not None and ptr and size is not None:
            # Paper Section 5.2: clear metadata when the static type of
            # the freed pointer says it may contain pointers.
            ctypes = getattr(instr, "arg_ctypes", None)
            pointee = ctypes[0].pointee if ctypes and ctypes[0].is_pointer else None
            if pointee is None or pointee.is_void or pointee.contains_pointer():
                runtime.facility.clear_range(ptr, size, self.machine.stats)
        return 0

    # -- strings -----------------------------------------------------------------

    def _do_strlen(self, args, metas, instr):
        src = int(args[0])
        data = self.machine.memory.read_cstring(src)
        self.machine.notify_load(src, len(data) + 1)
        self.machine.stats.charge_libc("strlen", len(data))
        return len(data)

    def _do_strcpy(self, args, metas, instr):
        dst, src = int(args[0]), int(args[1])
        mem = self.machine.memory
        data = mem.read_cstring(src)
        n = len(data) + 1
        if metas:
            self._wrapper_check(src, n, metas[1], "strcpy source")
            self._wrapper_check(dst, n, metas[0], "strcpy destination")
        self.machine.notify_load(src, n)
        self.machine.notify_store(dst, n)
        mem.write(dst, data + b"\x00")
        self.machine.stats.charge_libc("strcpy", n)
        return self._ret_ptr(dst, metas[0] if metas else None)

    def _do_strncpy(self, args, metas, instr):
        dst, src, n = int(args[0]), int(args[1]), int(args[2])
        mem = self.machine.memory
        data = mem.read_cstring(src)[:n]
        out = data + b"\x00" * (n - len(data))
        if metas:
            self._wrapper_check(src, min(len(data) + 1, n), metas[1], "strncpy source")
            self._wrapper_check(dst, n, metas[0], "strncpy destination")
        self.machine.notify_load(src, len(data))
        self.machine.notify_store(dst, n)
        mem.write(dst, out)
        self.machine.stats.charge_libc("strncpy", n)
        return self._ret_ptr(dst, metas[0] if metas else None)

    def _do_strcat(self, args, metas, instr):
        dst, src = int(args[0]), int(args[1])
        mem = self.machine.memory
        existing = mem.read_cstring(dst)
        data = mem.read_cstring(src)
        n = len(existing) + len(data) + 1
        if metas:
            self._wrapper_check(src, len(data) + 1, metas[1], "strcat source")
            self._wrapper_check(dst, n, metas[0], "strcat destination")
        self.machine.notify_load(src, len(data) + 1)
        self.machine.notify_store(dst + len(existing), len(data) + 1)
        mem.write(dst + len(existing), data + b"\x00")
        self.machine.stats.charge_libc("strcat", n)
        return self._ret_ptr(dst, metas[0] if metas else None)

    def _do_strcmp(self, args, metas, instr):
        a = self.machine.memory.read_cstring(int(args[0]))
        b = self.machine.memory.read_cstring(int(args[1]))
        self.machine.stats.charge_libc("strcmp", min(len(a), len(b)))
        return -1 if a < b else (1 if a > b else 0)

    def _do_strncmp(self, args, metas, instr):
        n = int(args[2])
        a = self.machine.memory.read_cstring(int(args[0]))[:n]
        b = self.machine.memory.read_cstring(int(args[1]))[:n]
        self.machine.stats.charge_libc("strncmp", min(len(a), len(b)))
        return -1 if a < b else (1 if a > b else 0)

    def _do_strchr(self, args, metas, instr):
        src, ch = int(args[0]), int(args[1]) & 0xFF
        data = self.machine.memory.read_cstring(src)
        self.machine.stats.charge_libc("strchr", len(data))
        idx = data.find(bytes([ch]))
        meta = metas[0] if metas else None
        if ch == 0:
            return self._ret_ptr(src + len(data), meta)
        return self._ret_ptr(src + idx if idx >= 0 else 0, meta)

    def _do_gets(self, args, metas, instr):
        dst = int(args[0])
        line = self.machine.read_input_line()
        n = len(line) + 1
        if metas:
            self._wrapper_check(dst, n, metas[0], "gets destination")
        self.machine.notify_store(dst, n)
        self.machine.memory.write(dst, line + b"\x00")
        self.machine.stats.charge_libc("gets", n)
        return self._ret_ptr(dst, metas[0] if metas else None)

    def _do_atoi(self, args, metas, instr):
        data = self.machine.memory.read_cstring(int(args[0]))
        self.machine.stats.charge_libc("atoi", len(data))
        text = data.decode("latin1").strip()
        sign = 1
        if text[:1] in ("-", "+"):
            sign = -1 if text[0] == "-" else 1
            text = text[1:]
        digits = ""
        for ch in text:
            if not ch.isdigit():
                break
            digits += ch
        return sign * int(digits) if digits else 0

    # -- memory block operations ----------------------------------------------------

    def _do_memcpy(self, args, metas, instr):
        dst, src, n = int(args[0]), int(args[1]), int(args[2])
        mem = self.machine.memory
        if metas:
            # Checked "once at the start of the copy" (paper Section 5.2).
            self._wrapper_check(src, n, metas[1], "memcpy source")
            self._wrapper_check(dst, n, metas[0], "memcpy destination")
        self.machine.notify_load(src, n)
        self.machine.notify_store(dst, n)
        mem.write(dst, mem.read(src, n))
        runtime = self.machine.sb_runtime
        if runtime is not None:
            ctypes = getattr(instr, "arg_ctypes", None)
            src_ctype = ctypes[1] if ctypes and len(ctypes) > 1 else None
            runtime.memcpy_metadata(src, dst, n, src_ctype)
        self.machine.stats.charge_libc("memcpy", n)
        return self._ret_ptr(dst, metas[0] if metas else None)

    _do_memmove = _do_memcpy

    def _do_memset(self, args, metas, instr):
        dst, value, n = int(args[0]), int(args[1]) & 0xFF, int(args[2])
        if metas:
            self._wrapper_check(dst, n, metas[0], "memset destination")
        self.machine.notify_store(dst, n)
        self.machine.memory.write(dst, bytes([value]) * n)
        runtime = self.machine.sb_runtime
        if runtime is not None:
            runtime.facility.clear_range(dst, n, self.machine.stats)
        self.machine.stats.charge_libc("memset", n)
        return self._ret_ptr(dst, metas[0] if metas else None)

    def _do_memcmp(self, args, metas, instr):
        a = self.machine.memory.read(int(args[0]), int(args[2]))
        b = self.machine.memory.read(int(args[1]), int(args[2]))
        self.machine.stats.charge_libc("memcmp", int(args[2]))
        return -1 if a < b else (1 if a > b else 0)

    # -- output ----------------------------------------------------------------------

    def _do_printf(self, args, metas, instr):
        fmt = self.machine.memory.read_cstring(int(args[0]))
        text = self._format(fmt, args[1:])
        self.machine.emit_output(text)
        self.machine.stats.charge_libc("printf", len(text))
        return len(text)

    def _do_sprintf(self, args, metas, instr):
        dst = int(args[0])
        fmt = self.machine.memory.read_cstring(int(args[1]))
        text = self._format(fmt, args[2:]).encode("latin1") + b"\x00"
        if metas:
            self._wrapper_check(dst, len(text), metas[0], "sprintf destination")
        self.machine.notify_store(dst, len(text))
        self.machine.memory.write(dst, text)
        self.machine.stats.charge_libc("sprintf", len(text))
        return len(text) - 1

    def _do_snprintf(self, args, metas, instr):
        dst, cap = int(args[0]), int(args[1])
        fmt = self.machine.memory.read_cstring(int(args[2]))
        text = self._format(fmt, args[3:]).encode("latin1")
        out = text[: max(cap - 1, 0)] + b"\x00" if cap > 0 else b""
        if metas and out:
            self._wrapper_check(dst, len(out), metas[0], "snprintf destination")
        if out:
            self.machine.notify_store(dst, len(out))
            self.machine.memory.write(dst, out)
        self.machine.stats.charge_libc("snprintf", len(out))
        return len(text)

    def _format(self, fmt, values):
        """printf-style formatting over simulated-memory arguments."""
        out = []
        values = list(values)
        i = 0
        text = fmt.decode("latin1")
        vi = 0

        def next_value():
            nonlocal vi
            value = values[vi] if vi < len(values) else 0
            # SoftBound-appended metadata args may trail the real ones;
            # callers of _format pass the original slice, so this is just
            # defensive.
            vi += 1
            return value

        while i < len(text):
            ch = text[i]
            if ch != "%":
                out.append(ch)
                i += 1
                continue
            i += 1
            spec = ""
            while i < len(text) and text[i] in "-+ 0123456789.l":
                spec += text[i]
                i += 1
            if i >= len(text):
                break
            conv = text[i]
            i += 1
            spec_clean = spec.replace("l", "")
            if conv == "%":
                out.append("%")
            elif conv in "di":
                out.append(("%" + spec_clean + "d") % int(next_value()))
            elif conv == "u":
                out.append(("%" + spec_clean + "d") % (int(next_value()) & 0xFFFFFFFFFFFFFFFF))
            elif conv == "x":
                out.append(("%" + spec_clean + "x") % (int(next_value()) & 0xFFFFFFFFFFFFFFFF))
            elif conv == "c":
                out.append(chr(int(next_value()) & 0xFF))
            elif conv == "s":
                addr = int(next_value())
                out.append(self.machine.memory.read_cstring(addr).decode("latin1"))
            elif conv in "fge":
                out.append(("%" + (spec_clean or ".6") + conv) % float(next_value()))
            elif conv == "p":
                out.append("0x%x" % int(next_value()))
            else:
                out.append("%" + spec + conv)
        return "".join(out)

    def _do_puts(self, args, metas, instr):
        data = self.machine.memory.read_cstring(int(args[0]))
        self.machine.emit_output(data.decode("latin1") + "\n")
        self.machine.stats.charge_libc("puts", len(data))
        return len(data) + 1

    def _do_putchar(self, args, metas, instr):
        self.machine.emit_output(chr(int(args[0]) & 0xFF))
        self.machine.stats.charge_libc("putchar")
        return int(args[0])

    def _do_getchar(self, args, metas, instr):
        self.machine.stats.charge_libc("getchar")
        return self.machine.read_input_char()

    # -- numeric -----------------------------------------------------------------------

    def _do_abs(self, args, metas, instr):
        self.machine.stats.charge_libc("abs")
        return abs(int(args[0]))

    _do_labs = _do_abs

    def _do_rand(self, args, metas, instr):
        self.machine.rng_state = (self.machine.rng_state * 1103515245 + 12345) & 0x7FFFFFFF
        self.machine.stats.charge_libc("rand")
        return self.machine.rng_state

    def _do_srand(self, args, metas, instr):
        self.machine.rng_state = int(args[0]) & 0x7FFFFFFF or 1
        self.machine.stats.charge_libc("srand")
        return 0

    def _math1(self, name, fn, args):
        self.machine.stats.charge_libc(name)
        try:
            return fn(float(args[0]))
        except (ValueError, OverflowError):
            return float("nan")

    def _do_sqrt(self, args, metas, instr):
        return self._math1("sqrt", math.sqrt, args)

    def _do_fabs(self, args, metas, instr):
        return self._math1("fabs", abs, args)

    def _do_floor(self, args, metas, instr):
        return self._math1("floor", lambda v: float(math.floor(v)), args)

    def _do_ceil(self, args, metas, instr):
        return self._math1("ceil", lambda v: float(math.ceil(v)), args)

    def _do_sin(self, args, metas, instr):
        return self._math1("sin", math.sin, args)

    def _do_cos(self, args, metas, instr):
        return self._math1("cos", math.cos, args)

    def _do_exp(self, args, metas, instr):
        return self._math1("exp", math.exp, args)

    def _do_log(self, args, metas, instr):
        return self._math1("log", math.log, args)

    def _do_pow(self, args, metas, instr):
        self.machine.stats.charge_libc("pow")
        try:
            return float(args[0]) ** float(args[1])
        except (ValueError, OverflowError, ZeroDivisionError):
            return float("nan")

    # -- process control ------------------------------------------------------------------

    def _do_exit(self, args, metas, instr):
        self.machine.stats.charge_libc("exit")
        self.machine.exit_program(int(args[0]))

    def _do_abort(self, args, metas, instr):
        raise Trap(TrapKind.ABORT, "abort() called", source="program")

    # -- setjmp / longjmp --------------------------------------------------------------------

    def _do_setjmp(self, args, metas, instr):
        self.machine.stats.charge_libc("setjmp")
        return self.machine.do_setjmp(int(args[0]), instr)

    def _do_longjmp(self, args, metas, instr):
        self.machine.stats.charge_libc("longjmp")
        return self.machine.do_longjmp(int(args[0]), int(args[1]))

    # -- SoftBound programmer interface ---------------------------------------------------------

    def _do_setbound(self, args, metas, instr):
        # When the transform is active it rewrites setbound() calls into
        # direct register updates; reaching here means the program runs
        # unprotected, where setbound is a no-op by design.
        self.machine.stats.charge_libc("setbound")
        return 0

    # -- varargs ------------------------------------------------------------------------------------

    def _frame_for_va(self):
        return self.machine.current_frame()

    def _do_va_start(self, args, metas, instr):
        frame = self._frame_for_va()
        self.machine.memory.write_ptr(int(args[0]), frame.va_spill)
        self.machine.stats.charge_libc("va_start")
        return 0

    def _va_advance(self, ap_addr):
        frame = self._frame_for_va()
        mem = self.machine.memory
        cursor = mem.read_ptr(ap_addr)
        offset = cursor - frame.va_spill
        if self.machine.sb_runtime is not None:
            self.machine.stats.charge("sb.vararg.check")
            if offset < 0 or offset + 8 > frame.va_bytes:
                raise Trap(TrapKind.VARARG_VIOLATION,
                           "va_arg decoded past the passed arguments",
                           source="softbound")
        mem.write_ptr(ap_addr, cursor + 8)
        return cursor, offset, frame

    def _do_va_arg_long(self, args, metas, instr):
        cursor, _offset, _frame = self._va_advance(int(args[0]))
        self.machine.stats.charge_libc("va_arg_long")
        return self.machine.memory.read_int(cursor, 8, signed=True)

    def _do_va_arg_ptr(self, args, metas, instr):
        cursor, offset, frame = self._va_advance(int(args[0]))
        self.machine.stats.charge_libc("va_arg_ptr")
        value = self.machine.memory.read_int(cursor, 8, signed=False)
        runtime = self.machine.sb_runtime
        if runtime is not None:
            meta = frame.va_metas.get(offset)
            if meta is None:
                meta = runtime.null_meta
            elif len(meta) < runtime.meta_arity:
                meta = tuple(meta) + (0,) * (runtime.meta_arity - len(meta))
            return (value,) + tuple(meta)
        return value

    def _do_va_end(self, args, metas, instr):
        self.machine.stats.charge_libc("va_end")
        return 0
