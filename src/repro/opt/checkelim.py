"""Redundant bounds-check elimination.

The paper relies on re-running LLVM's optimizations after instrumentation
to "remove some redundant checks and factor out common sub-expressions"
(Section 6.1).  This pass implements the check-specific part directly,
at two scopes:

* **Block-local** (any register): within a basic block, a second
  ``sb_check`` dominated by an identical one (same pointer/base/bound
  values up to register copies, same or smaller constant access size, no
  intervening redefinition) can never fire first and is removed.

* **Global, dominance-based** (single-definition registers and symbols):
  a check whose key values each have exactly one static definition (or
  are symbols/constants) cannot change between a dominating occurrence
  and a dominated one — the single def dominates both — so the dominated
  duplicate is removed even across blocks and loop iterations.  The
  availability table is scoped by a dominator-tree walk
  (:class:`repro.ir.cfg.CFG`), the classic dominator-based value
  numbering discipline.

``sb_meta_load`` duplicates are deduplicated under the same two scopes,
with one extra obligation checks do not have: a metadata load reads the
mutable disjoint table, so the dominating occurrence must be provably
un-invalidated at the dominated one.  Cross-block dedup therefore
applies only in functions containing **no** table-writing instructions
at all (no call / memcopy / sb_meta_store — the only writers, the
table being disjoint from program memory); otherwise the dedup falls
back to block-local scope with the availability table killed at every
potential table write.  A deduplicated load is replaced
by two ``mov``s from the dominating load's companion registers (which
the cost model prices at zero, matching register renaming).

``sb_temporal_check`` duplicates follow the metadata-load discipline
with a different invalidation set: the check reads mutable *lock*
state, which only a call can change (``free`` is a call; frame teardown
happens past any ``ret``, ending the path) — so a dominated identical
temporal check per pointer slot is removed cross-block in call-free
functions, and block-locally with the availability table killed at
every call otherwise.
"""

from ..ir import instructions as ins
from ..ir.cfg import CFG
from ..ir.values import Const, Register, SymbolRef
from ..policy.opcodes import lock_releaser_opcodes, table_writer_opcodes


def _definition_counts(func):
    counts = {}
    for instr in func.instructions():
        dst = getattr(instr, "dst", None)
        if dst is not None:
            counts[dst.uid] = counts.get(dst.uid, 0) + 1
        for attr in ("dst_base", "dst_bound", "dst_key", "dst_lock"):
            reg = getattr(instr, attr, None)
            if reg is not None:
                counts[reg.uid] = counts.get(reg.uid, 0) + 1
        meta = getattr(instr, "sb_dst_meta", None)
        if meta is not None:
            for reg in meta:
                counts[reg.uid] = counts.get(reg.uid, 0) + 1
    return counts


class _GlobalKeys:
    """Resolves check operands to stable keys when possible.

    A key part is stable when the dynamic value it denotes cannot differ
    between a dominating and a dominated occurrence: constants, symbols,
    and registers with a single static definition (resolved through
    single-def copy chains).  Multi-def registers yield None.
    """

    def __init__(self, func):
        counts = _definition_counts(func)
        self.single = {uid for uid, n in counts.items() if n == 1}
        # Parameter registers are defined exactly once, at entry, as
        # long as no instruction writes them (lowering spills params to
        # slots, so reassignment lands on the promoted copy instead).
        for param in list(func.params) + list(getattr(func, "sb_extra_params", [])):
            uid = param.register.uid
            if counts.get(uid, 0) == 0:
                self.single.add(uid)
        self.copy_of = {}
        for instr in func.instructions():
            if instr.opcode == "mov" and instr.dst.uid in self.single \
                    and isinstance(instr.src, (Register, Const, SymbolRef)):
                self.copy_of[instr.dst.uid] = instr.src

    def _resolve(self, value):
        hops = 0
        while isinstance(value, Register) and value.uid in self.copy_of \
                and hops < 64:
            value = self.copy_of[value.uid]
            hops += 1
        return value

    def part(self, value):
        value = self._resolve(value)
        if isinstance(value, Const):
            return ("c", value.value)
        if isinstance(value, SymbolRef):
            return ("s", value.name, getattr(value, "addend", 0))
        if isinstance(value, Register):
            if value.uid in self.single:
                return ("r", value.uid)
            return None
        return None

    def key(self, check):
        parts = (self.part(check.ptr), self.part(check.base),
                 self.part(check.bound))
        if any(p is None for p in parts):
            return None
        return parts


class _LocalState:
    """Per-block copy map and seen-check tables for multi-def registers
    (the original block-local discipline).  ``tseen`` holds temporal
    check keys; it is additionally cleared at every call (lock state may
    change there even though no register is redefined)."""

    def __init__(self):
        self.copies = {}
        self.seen = {}
        self.tseen = set()

    def resolve(self, value):
        if not isinstance(value, Register):
            return None
        uid = value.uid
        hops = 0
        while uid in self.copies and hops < 64:
            uid = self.copies[uid]
            hops += 1
        return uid

    def invalidate(self, uid):
        self.copies.pop(uid, None)
        self.copies = {d: s for d, s in self.copies.items() if s != uid}
        self.seen = {key: size for key, size in self.seen.items()
                     if uid not in key[:3]}
        self.tseen = {key for key in self.tseen if uid not in key}


def _written_uids(instr):
    writes = []
    dst = getattr(instr, "dst", None)
    if dst is not None:
        writes.append(dst.uid)
    for attr in ("dst_base", "dst_bound", "dst_key", "dst_lock"):
        reg = getattr(instr, attr, None)
        if reg is not None:
            writes.append(reg.uid)
    meta = getattr(instr, "sb_dst_meta", None)
    if meta is not None:
        writes.extend(reg.uid for reg in meta)
    return writes


def _addr_key(value, keys):
    """Stable key for a metadata-load address, or None."""
    return keys.part(value)


def run(func, module=None):
    """Remove dominated duplicate checks, metadata loads and temporal
    checks; returns ``(removed_checks, deduped_meta_loads,
    removed_temporal_checks)``."""
    if not func.blocks:
        return 0, 0, 0
    keys = _GlobalKeys(func)
    cfg = CFG(func)
    counts = _definition_counts(func)
    # The invalidation sets come from the policy opcode-trait registry
    # (live: a plugin's table-writing opcode extends them).
    table_writers = table_writer_opcodes()
    lock_releasers = lock_releaser_opcodes()
    # Cross-block (dominance-scoped) metadata-load dedup is sound only
    # when nothing in the function can write the table between the
    # dominating and the dominated occurrence.
    meta_global_ok = not any(instr.opcode in table_writers
                             for instr in func.instructions())
    # Cross-block temporal-check dedup is sound only when nothing in
    # the function can release a lock (no calls at all).
    temporal_global_ok = not any(instr.opcode in lock_releasers
                                 for instr in func.instructions())
    global_seen = {}   # stable key -> max constant size already checked
    global_meta = {}   # stable addr key -> (base Register, bound Register)
    global_tseen = set()  # stable (ptr, key, lock) keys already checked
    removed = 0
    deduped_meta = 0
    removed_temporal = 0

    def temporal_key(instr):
        parts = (keys.part(instr.ptr), keys.part(instr.key),
                 keys.part(instr.lock))
        if any(p is None for p in parts):
            return None
        return parts

    def process_block(block):
        nonlocal removed, deduped_meta, removed_temporal
        undo = []
        meta_undo = []
        tseen_undo = []
        local = _LocalState()
        local_meta = {}  # addr key -> (base Register, bound Register)
        kept = []
        for instr in block.instructions:
            if instr.opcode == "mov" and isinstance(instr.src, Register):
                local.invalidate(instr.dst.uid)
                _meta_kill_uid(local_meta, instr.dst.uid)
                root = local.resolve(instr.src)
                if root is not None:
                    local.copies[instr.dst.uid] = root
                kept.append(instr)
                continue
            if instr.opcode == "sb_meta_load":
                for uid in _written_uids(instr):
                    local.invalidate(uid)
                    _meta_kill_uid(local_meta, uid)
                key = _addr_key(instr.addr, keys)
                # All companion destinations — (base, bound), widened
                # with (key, lock) under temporal checking — must be
                # single-def, and a dedup must redefine every one of
                # them (a dropped key/lock would leave the following
                # sb_temporal_check reading an undefined register).
                dsts = [instr.dst_base, instr.dst_bound]
                if instr.dst_key is not None:
                    dsts.extend([instr.dst_key, instr.dst_lock])
                single_dsts = all(counts.get(reg.uid) == 1 for reg in dsts)
                if key is not None and single_dsts:
                    prev = (global_meta.get(key) if meta_global_ok
                            else local_meta.get(key))
                    if prev is not None and len(prev) == len(dsts):
                        for dst, src in zip(dsts, prev):
                            kept.append(ins.Mov(dst=dst, src=src))
                        deduped_meta += 1
                        continue
                    pair = tuple(dsts)
                    if meta_global_ok:
                        meta_undo.append(key)
                        global_meta[key] = pair
                    else:
                        local_meta[key] = pair
                kept.append(instr)
                continue
            if instr.opcode in table_writers:
                local_meta.clear()
            if instr.opcode in lock_releasers:
                local.tseen.clear()
            if instr.opcode == "sb_temporal_check":
                stable = temporal_key(instr)
                if stable is not None:
                    available = (global_tseen if temporal_global_ok
                                 else local.tseen)
                    if stable in available:
                        removed_temporal += 1
                        continue
                    if temporal_global_ok:
                        tseen_undo.append(stable)
                        global_tseen.add(stable)
                    else:
                        local.tseen.add(stable)
                    kept.append(instr)
                    continue
                # Block-local fallback for multi-def registers.
                resolved = (local.resolve(instr.ptr), local.resolve(instr.key),
                            local.resolve(instr.lock))
                if all(r is not None for r in resolved):
                    if resolved in local.tseen:
                        removed_temporal += 1
                        continue
                    local.tseen.add(resolved)
                kept.append(instr)
                continue
            if instr.opcode == "sb_check" and not instr.is_fnptr_check:
                size = instr.size.value if isinstance(instr.size, Const) else None
                if size is not None:
                    stable = keys.key(instr)
                    if stable is not None:
                        prev = global_seen.get(stable)
                        if prev is not None and size <= prev:
                            removed += 1
                            continue
                        undo.append((stable, prev))
                        global_seen[stable] = max(size, prev or 0)
                        kept.append(instr)
                        continue
                    # Fall back to the block-local discipline.
                    ptr = local.resolve(instr.ptr)
                    base = local.resolve(instr.base)
                    bound = local.resolve(instr.bound)
                    if ptr is not None:
                        key = (ptr, base, bound)
                        prev = local.seen.get(key)
                        if prev is not None and size <= prev:
                            removed += 1
                            continue
                        local.seen[key] = max(size, prev or 0)
                kept.append(instr)
                continue
            for uid in _written_uids(instr):
                local.invalidate(uid)
                _meta_kill_uid(local_meta, uid)
            kept.append(instr)
        block.instructions = kept
        return undo, meta_undo, tseen_undo

    # Dominator-tree DFS with scoped global availability.
    children = cfg.dominator_tree_children()
    stack = [("visit", cfg.entry)]
    undos = []
    while stack:
        action, block = stack.pop()
        if action == "leave":
            undo, meta_undo, tseen_undo = undos.pop()
            for stable, prev in reversed(undo):
                if prev is None:
                    global_seen.pop(stable, None)
                else:
                    global_seen[stable] = prev
            for key in reversed(meta_undo):
                global_meta.pop(key, None)
            for key in reversed(tseen_undo):
                global_tseen.discard(key)
            continue
        undos.append(process_block(block))
        stack.append(("leave", block))
        for child in reversed(children.get(block.label, [])):
            stack.append(("visit", child))
    return removed, deduped_meta, removed_temporal


def _meta_kill_uid(local_meta, uid):
    """Drop block-local metadata availability mentioning a redefined
    register (either in the address key or the cached companions)."""
    if not local_meta:
        return
    dead = [key for key, pair in local_meta.items()
            if (key[0] == "r" and key[1] == uid)
            or any(reg.uid == uid for reg in pair)]
    for key in dead:
        del local_meta[key]
