"""The SoftBound runtime attached to a VM.

Holds the metadata facility and implements the runtime services that are
not per-instruction: global metadata initialization (paper Section 5.2,
"Global variables"), metadata copying for memcpy/struct assignment, and
stack-frame metadata clearing on return ("Memory reuse and stale
metadata").

With ``config.temporal`` the runtime additionally owns the lock-and-key
state (:class:`repro.temporal.LockSpace`): it hands out (key, lock)
pairs at ``malloc`` and stack-frame entry, invalidates them at ``free``
and frame teardown, and exposes the liveness predicate the
``sb_temporal_check`` instruction evaluates.  Metadata copying and
global initialization carry the widened (base, bound, key, lock)
entries through the same disjoint facility.
"""

from ..temporal import GLOBAL_KEY, GLOBAL_LOCK, LockSpace
from ..vm.errors import temporal_violation
from ..vm.machine import _frame_layout


class SoftBoundRuntime:
    def __init__(self, config, policy=None):
        self.config = config
        # The checker policy owns the runtime's shape: which metadata
        # facility backs the table, what one check costs, and how many
        # companion values ride with each pointer.  Resolved through
        # the policy registry (ad-hoc ablation configs resolve to the
        # policy of their variant) unless the caller injects one.
        if policy is None:
            from ..policy import policy_for_config

            try:
                policy = policy_for_config(config)
            except KeyError:
                if getattr(config, "temporal", False) \
                        and config.variant != "softbound":
                    raise ValueError(
                        f"temporal checking requires the softbound "
                        f"variant, not {config.variant!r}") from None
                raise
        self.policy = policy
        self.facility = policy.make_facility(config)
        self.check_cost_key = policy.check_cost_key
        self.machine = None
        # Inline-metadata facilities observe every non-pointer store
        # (Section 3.4's corruption channel); disjoint ones cannot be
        # reached by program stores at all.
        self.observes_stores = hasattr(self.facility, "on_program_store")
        # Lock-and-key temporal state (repro.temporal): only the
        # paper's own variant carries the widened metadata discipline.
        self.temporal = bool(getattr(config, "temporal", False))
        if self.temporal and config.variant != "softbound":
            raise ValueError(
                f"temporal checking requires the softbound variant, "
                f"not {config.variant!r}")
        self.lockspace = LockSpace() if self.temporal else None
        #: Per-pointer metadata arity through calls/returns/varargs:
        #: (base, bound) spatially, (base, bound, key, lock) temporally.
        self.meta_arity = policy.meta_arity
        self.null_meta = (0,) * self.meta_arity
        #: payload address -> (key, lock slot) of every live heap
        #: allocation; consulted by free() so double/invalid frees trap
        #: without trusting the caller-provided metadata.
        self.heap_locks = {}

    def on_program_store(self, addr, size):
        self.facility.on_program_store(addr, size, self.machine.stats)

    def attach(self, machine):
        machine.sb_runtime = self
        self.machine = machine
        if getattr(machine, "_engine", None) is not None:
            # Compiled closures specialize away absent-runtime branches;
            # re-translate if the machine already executed (mirrors
            # Machine.attach_observer).
            machine._engine.invalidate()
        return self

    # -- temporal services ----------------------------------------------------

    def heap_acquire(self, ptr, stats):
        """Key a fresh heap allocation; returns its (key, lock) pair."""
        key, lock = self.lockspace.acquire(stats)
        self.heap_locks[ptr] = (key, lock)
        return key, lock

    def heap_release(self, ptr, stats, access_kind="free"):
        """Invalidate a heap allocation's lock.  Raises a temporal trap
        for a pointer that is not a live allocation (double free, or
        free of something malloc never returned)."""
        entry = self.heap_locks.pop(ptr, None)
        if entry is None:
            stats.temporal_checks += 1
            stats.charge("sb.temporal.check")
            raise temporal_violation(access_kind, ptr, 0, 0)
        self.lockspace.release(entry[1], stats)
        return entry

    def check_live(self, access_kind, ptr, key, lock, stats):
        """The wrapper-level temporal check (libc routines check the
        whole operation once, up front, like the spatial wrapper
        check)."""
        stats.temporal_checks += 1
        stats.charge("sb.temporal.check")
        if not self.lockspace.live(key, lock):
            raise temporal_violation(access_kind, ptr, key, lock)

    # -- global initialization ------------------------------------------------

    def initialize_globals(self, machine):
        """Seed in-memory metadata for initialized global pointers.

        The paper implements this "using the same hooks C++ uses to run
        code for constructing global objects"; here the runtime walks the
        relocation records the lowerer produced for every pointer-valued
        global initializer.
        """
        module = machine.module
        for name, gvar in module.globals.items():
            base_addr = machine.symbol_addrs[name]
            for offset, sym, addend in gvar.relocs:
                target_base, target_bound = self.symbol_bounds(machine, sym)
                self.facility.store(base_addr + offset, target_base, target_bound,
                                    machine.stats)
                machine.stats.charge("sb.global.init.per_ptr")
                if self.temporal:
                    # Globals and functions live forever under the
                    # immortal global lock.
                    self.facility.store_temporal(
                        base_addr + offset, GLOBAL_KEY, GLOBAL_LOCK,
                        machine.stats)
                    machine.stats.charge("sb.temporal.global.init.per_ptr")

    def symbol_bounds(self, machine, sym):
        """Static bounds for a symbol: globals span their image; functions
        use the base==bound encoding (paper Section 5.2)."""
        addr = machine.symbol_addrs[sym]
        gvar = machine.module.globals.get(sym)
        if gvar is not None:
            return addr, addr + max(gvar.size, 1)
        return addr, addr  # function pointer encoding

    # -- metadata copying ---------------------------------------------------------

    def copy_metadata(self, src, dst, size, ctype=None):
        """Copy metadata for an aggregate copy (struct assignment)."""
        if ctype is not None and not ctype.contains_pointer():
            return
        self._copy_range(src, dst, size)

    def memcpy_metadata(self, src, dst, size, src_ctype=None):
        """memcpy's metadata handling (paper Section 5.2): safe default is
        to always copy; the inference option skips copies whose source
        type provably contains no pointers."""
        if self.config.infer_memcpy and src_ctype is not None and src_ctype.is_pointer:
            pointee = src_ctype.pointee
            if not pointee.is_void and not pointee.contains_pointer():
                return
        self._copy_range(src, dst, size)

    def _copy_range(self, src, dst, size):
        stats = self.machine.stats
        facility = self.facility
        for off in range(0, size, 8):
            base, bound = facility.load(src + off, stats)
            facility.store(dst + off, base, bound, stats)
            if self.temporal:
                key, lock = facility.load_temporal(src + off, stats)
                facility.store_temporal(dst + off, key, lock, stats)

    # -- stack frame teardown ---------------------------------------------------------

    def on_frame_teardown(self, machine, frame):
        """Clear metadata for pointer-bearing stack slots before the frame
        is reused (paper Section 5.2's heuristic, decided once per
        function by its frame layout's ``pointer_slots``), and kill the
        frame's lock so every pointer into it becomes permanently dead.
        The compiled engine's ``ret`` does the same inline."""
        base = frame.base
        for offset, size in _frame_layout(frame.function).pointer_slots:
            self.facility.clear_range(base + offset, size, machine.stats)
        if self.temporal and frame.lock_slot:
            self.lockspace.release(frame.lock_slot, machine.stats)
