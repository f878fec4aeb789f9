"""Monotonic check widening via guarded loop versioning.

The hot shape SoftBound instruments is the counted array walk::

    for (i = S; i < N; i += step)  ...a[i]...   ->   gep; sb_check; load

whose per-iteration ``sb_check`` re-proves membership of an *affine*
address ``P + c*i + d`` in an *invariant* ``[base, bound)``.  Because an
affine function is monotone in ``i``, the whole access range is in
bounds iff its two endpoint addresses are — one widened test per loop
entry can stand in for N per-iteration checks.

Replacing trapping checks with a widened preheader check naively would
move a trap from iteration *k* to the loop entry, changing observable
behaviour (output emitted before the trap, the faulting address).  This
pass therefore widens by **loop versioning**, which preserves trap
behaviour bit-for-bit:

* the preheader computes a *non-trapping* guard: for every widenable
  check, the first-iteration address and the last-iteration address
  must both lie in ``[base, bound - size]`` (plus no-overflow sanity
  terms, below);
* guard passes  -> branch to the **fast loop**: the original loop with
  the widened checks deleted.  The guard proved every deleted check
  would have passed, so removal is invisible except to the cost model;
* guard fails  -> branch to the **slow loop**: an instruction-for-
  instruction clone of the original loop with every check intact.  Any
  trap fires exactly where, and exactly as, it always did.

Recognition is deliberately conservative; a loop is versioned only when
**all** of the following hold (anything else is simply left alone):

* innermost natural loop, single latch distinct from the header.
  Calls *are* clonable — each clone shares the original site's
  pre-assigned return-address token via ``sb_site_key``
  (:meth:`repro.vm.machine.Machine._call_site_key`), because token
  values are observable program state (stack overreads can fold saved-
  RA bytes into output) and must not depend on whether a loop was
  versioned — with one exception: loops containing ``setjmp`` (or an
  indirect call, which could resolve to it) are never versioned, since
  a later ``longjmp`` could warp into the check-free fast path with an
  unvalidated IV;
* a single induction variable ``i``: its only in-loop definition is
  ``i += step`` (directly or through the mem2reg ``add``/``mov`` pair)
  in the latch, with a constant ``1 <= step <= 2**16``;
* the header exits on a signed ``i < N`` / ``i <= N`` comparison
  against a loop-invariant ``N`` (either operand order, optionally
  through the lowerer's ``cmp ne(x, 0)`` wrapper).  The header test
  bounds every in-body value of ``i`` by ``hi = N-1`` (or ``N``), and
  the guard's no-overflow term (emitted when ``step > 1`` or the bound
  is inclusive) certifies the stepped sequence cannot wrap the IV's
  width, so in-body values are exactly ``S <= i <= hi``;
* each widened check has an invariant constant size, invariant
  (IV-free) base/bound, and a pointer that the analyzer can express as
  a side-effect-free chain of ``mov``/``sext``/``add``/``sub``/``mul``/
  ``shl``/``gep`` over the IV, constants and loop-invariant values.
  An IV-dependent check must additionally sit in a block dominated by
  the exit test's in-loop successor: only then is every evaluation
  preceded by a passing ``i < N`` test *that same iteration*.  (A
  condition-expression access in the header evaluates once more on the
  exiting iteration, with the IV at or past the limit — outside the
  guard's endpoints.)
  The chain is re-emitted twice in the guard with the IV replaced by
  the ``S`` and ``hi`` endpoint values, re-using the *same opcodes and
  operand widths* so the guard computes exactly what the first and last
  iterations would.

Why endpoint tests suffice (wrap-around soundness): along the accepted
chain the address is affine in ``i`` with |coefficient| <= 2**20 and an
IV range certified (by the header test, the no-overflow term and, for
64-bit IVs, explicit |S|,|N| <= 2**40 window terms) to span <= 2**41,
so the true endpoint-to-endpoint span is < 2**62.  Modulo-2**64 address
arithmetic can therefore wrap at most once across the range; if it did
wrap strictly between the endpoints, one computed endpoint would lie
within 2**62 of 2**64 — impossible for an address that also passed the
``<= bound - size`` test with ``bound < 2**63``.  Hence both endpoints
in bounds implies every intermediate address in bounds.  Narrow
(pre-``sext``) constant arithmetic on the IV additionally gets window
terms proving the exact values at both endpoints fit the narrow width,
which rules out intermediate narrow wraps by the same monotonicity
argument.
"""

import copy

from ..ir import instructions as ins
from ..ir.cfg import CFG
from ..ir.irtypes import I64, PTR
from ..ir.loops import ensure_preheader, find_loops
from ..ir.values import Const, Register, SymbolRef
from ..policy.opcodes import traits_of
from ..vm.costs import OP_COSTS

#: Amortization floor assumed for loops whose trip count is runtime-
#: dependent: the guard must pay for itself within this many iterations.
#: Runtime-bounded array walks typically scale with the data; the loops
#: that do not (short fixed scans) almost always have constant bounds
#: and are gated exactly by the static trip count instead.
_ASSUMED_MIN_TRIPS = 16

_MAX_COEFF = 1 << 20
_MAX_CONST = 1 << 32
_MAX_STEP = 1 << 16
_IV64_WINDOW = 1 << 40
_MAX_LOOP_INSTRS = 200
_MAX_CHAIN_DEPTH = 24

#: Pure opcodes an invariant-subtree clone may contain.
_CLONABLE_PURE = {"mov", "gep", "cast", "cmp"}
_CLONABLE_BINOPS = frozenset(["add", "sub", "mul", "and", "or", "xor",
                              "shl", "lshr", "ashr"])


class _Reject(Exception):
    pass


def loop_def_counts(func, loop):
    """Register uid -> number of definitions inside ``loop``."""
    counts = {}
    for label in loop.blocks:
        for instr in func.block_map[label].instructions:
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


def is_invariant(value, loop_defs):
    """A value whose runtime meaning cannot change across iterations:
    constants, symbols (fixed addresses), and registers never defined
    inside the loop."""
    if isinstance(value, (Const, SymbolRef)):
        return True
    if isinstance(value, Register):
        return loop_defs.get(value.uid, 0) == 0
    return False


def _single_defs(func, loop):
    """uid -> its unique in-loop defining instruction (only uids with
    exactly one in-loop definition appear)."""
    defs = {}
    counts = loop_def_counts(func, loop)
    for label in loop.blocks:
        for instr in func.block_map[label].instructions:
            dst = getattr(instr, "dst", None)
            if dst is not None and counts.get(dst.uid) == 1:
                defs[dst.uid] = instr
    return defs


# -- induction-variable and trip-bound recognition ---------------------------


def _iv_candidates(func, loop, defs_count):
    """Recognize canonical counted-loop IVs.  Yields
    ``(iv_reg, step, latch_label, update_index, add_instr)`` tuples;
    the caller picks the one the header exit test is written against
    (a latch may also hold accumulator updates of the same shape)."""
    if len(loop.latches) != 1:
        return
    latch_label = loop.latches[0]
    if latch_label == loop.header:
        return
    latch = func.block_map[latch_label]
    for index, instr in enumerate(latch.instructions):
        iv = step = None
        if instr.opcode == "binop" and instr.op == "add" \
                and isinstance(instr.dst, Register):
            a, b = instr.a, instr.b
            # Direct form: i = add i, step.
            if isinstance(a, Register) and a.uid == instr.dst.uid \
                    and isinstance(b, Const) and isinstance(b.value, int):
                iv, step = instr.dst, b.value
            # mem2reg form: tmp = add i, step ; i = mov tmp.
            elif isinstance(a, Register) and isinstance(b, Const) \
                    and isinstance(b.value, int) \
                    and index + 1 < len(latch.instructions):
                nxt = latch.instructions[index + 1]
                if (nxt.opcode == "mov" and isinstance(nxt.src, Register)
                        and nxt.src.uid == instr.dst.uid
                        and isinstance(nxt.dst, Register)
                        and nxt.dst.uid == a.uid):
                    iv, step = nxt.dst, b.value
        if iv is None:
            continue
        if not (1 <= step <= _MAX_STEP):
            continue
        if iv.type is None or not iv.type.is_int:
            continue
        if defs_count.get(iv.uid, 0) != 1:
            continue  # other in-loop writes: not a simple IV
        # The add's destination (the pre-mov temporary, or the IV
        # itself) must not be written anywhere else in the loop.
        if defs_count.get(instr.dst.uid, 0) != 1:
            continue
        yield iv, step, latch_label, index, instr


def _resolve_header_cond(func, loop, cond):
    """Resolve the header terminator's condition register to its
    defining ``cmp``, looking through one ``cmp ne(x, 0)`` wrapper."""
    header = func.block_map[loop.header]
    by_uid = {}
    for instr in header.instructions:
        dst = getattr(instr, "dst", None)
        if dst is not None:
            by_uid[dst.uid] = instr
    if not isinstance(cond, Register):
        return None
    instr = by_uid.get(cond.uid)
    if instr is None or instr.opcode != "cmp":
        return None
    if instr.pred == "ne" and isinstance(instr.b, Const) \
            and instr.b.value == 0 and isinstance(instr.a, Register):
        inner = by_uid.get(instr.a.uid)
        if inner is not None and inner.opcode == "cmp":
            return inner
    return instr


def _trip_bound(func, loop, iv, loop_defs):
    """Recognize the header exit test.  Returns ``(limit_value,
    inclusive, continue_label)`` — in-body IV values are bounded above
    by ``limit - 1`` (exclusive) or ``limit`` (inclusive), and
    ``continue_label`` is the in-loop successor the test guards — or
    None."""
    header = func.block_map[loop.header]
    term = header.terminator
    if term is None or term.opcode != "cbr":
        return None
    cmp_instr = _resolve_header_cond(func, loop, term.cond)
    if cmp_instr is None:
        return None
    in_true = term.true_label in loop.blocks
    in_false = term.false_label in loop.blocks
    if in_true == in_false:
        return None  # both arms in (or out of) the loop: not the exit test
    continue_label = term.true_label if in_true else term.false_label
    a, b = cmp_instr.a, cmp_instr.b
    pred = cmp_instr.pred
    if not in_true:
        # Loop continues when the comparison is false: use the negation.
        pred = {"slt": "sge", "sle": "sgt", "sgt": "sle", "sge": "slt"}.get(pred)
        if pred is None:
            return None
    def is_iv(v):
        return isinstance(v, Register) and v.uid == iv.uid
    if pred == "slt" and is_iv(a) and is_invariant(b, loop_defs):
        return b, False, continue_label
    if pred == "sle" and is_iv(a) and is_invariant(b, loop_defs):
        return b, True, continue_label
    if pred == "sgt" and is_iv(b) and is_invariant(a, loop_defs):
        return a, False, continue_label
    if pred == "sge" and is_iv(b) and is_invariant(a, loop_defs):
        return a, True, continue_label
    return None


# -- affine pointer-chain analysis -------------------------------------------


class _ChainInfo:
    """What the analyzer learned about one check pointer."""

    def __init__(self):
        self.coeff_abs = 1       # |d addr / d iv| upper bound
        self.narrow_nodes = []   # trees of narrow IV arithmetic needing windows

    def merged(self, other):
        self.coeff_abs = max(self.coeff_abs, other.coeff_abs)
        self.narrow_nodes.extend(other.narrow_nodes)


def _analyze_value(value, ctx, depth=0):
    """Build an emission tree for ``value``.

    Tree nodes: ``("inv", Value)`` for IV-free values, ``("iv",)`` for
    the induction variable, and ``(op, ...)`` re-emission nodes.
    Raises :class:`_Reject` when the value is outside the grammar.
    Returns ``(tree, ivdep, narrow_width_or_None)``.
    """
    if depth > _MAX_CHAIN_DEPTH:
        raise _Reject("chain too deep")
    iv, loop_defs, single_defs, banned = (
        ctx["iv"], ctx["loop_defs"], ctx["single_defs"], ctx["banned"])
    if isinstance(value, (Const, SymbolRef)):
        return ("inv", value), False, None
    if not isinstance(value, Register):
        raise _Reject("unsupported operand kind")
    if value.uid == iv.uid:
        width = iv.type.size * 8
        return ("iv",), True, (width if width < 64 else None)
    if loop_defs.get(value.uid, 0) == 0:
        return ("inv", value), False, None
    if value.uid in banned:
        raise _Reject("reads post-increment IV value")
    d = single_defs.get(value.uid)
    if d is None:
        raise _Reject("multiply-defined in loop")
    if d.opcode == "mov":
        return _analyze_value(d.src, ctx, depth + 1)
    if d.opcode == "cast" and d.kind == "sext":
        sub, ivdep, narrow = _analyze_value(d.src, ctx, depth + 1)
        if not ivdep:
            return ("inv", value), False, None
        return ("sext", sub, d.dst.type), True, None
    if d.opcode == "gep":
        bt, biv, bn = _analyze_value(d.base, ctx, depth + 1)
        ot, oiv, on = _analyze_value(d.offset, ctx, depth + 1)
        if not biv and not oiv:
            return ("inv", value), False, None
        if biv and oiv:
            raise _Reject("both gep operands depend on the IV")
        if bn is not None or on is not None:
            raise _Reject("narrow value reaches address width without sext")
        return ("gep", bt, ot, d.dst.type), True, None
    if d.opcode == "binop" and d.op in ("add", "sub", "mul", "shl"):
        at, aiv, an = _analyze_value(d.a, ctx, depth + 1)
        bt, biv, bn = _analyze_value(d.b, ctx, depth + 1)
        if not aiv and not biv:
            return ("inv", value), False, None
        if aiv and biv:
            raise _Reject("both operands depend on the IV")
        ivt, invt = (at, bt) if aiv else (bt, at)
        narrow_in = an if aiv else bn
        width = d.dst.type.size * 8
        const_operand = (invt[1].value
                         if invt[0] == "inv" and isinstance(invt[1], Const)
                         and isinstance(invt[1].value, int) else None)
        if d.op in ("mul", "shl"):
            if const_operand is None:
                raise _Reject("IV scaled by a non-constant")
            if d.op == "shl":
                if not (0 <= const_operand < 32):
                    raise _Reject("oversized shift")
                factor = 1 << const_operand
            else:
                factor = abs(const_operand)
            if factor > _MAX_COEFF:
                raise _Reject("scaling coefficient too large")
            if width < 64:
                raise _Reject("narrow IV scaling")
            if narrow_in is not None:
                raise _Reject("narrow value scaled without sext")
            ctx["info"].coeff_abs *= max(factor, 1)
            if ctx["info"].coeff_abs > _MAX_COEFF:
                raise _Reject("accumulated coefficient too large")
            return ("bin", d.op, ivt, invt, aiv, d.dst.type), True, None
        # add / sub
        if width < 64:
            # Narrow IV arithmetic: constants only, windows required.
            if const_operand is None or abs(const_operand) > _MAX_CONST:
                raise _Reject("narrow IV arithmetic with non-constant")
            if d.op == "sub" and not aiv:
                raise _Reject("narrow const-minus-IV")
            if narrow_in is None or narrow_in != width:
                raise _Reject("mixed narrow widths")
            tree = ("bin", d.op, ivt, invt, aiv, d.dst.type)
            ctx["info"].narrow_nodes.append(tree)
            return tree, True, width
        if narrow_in is not None:
            raise _Reject("narrow value widened without sext")
        if const_operand is not None and abs(const_operand) > _MAX_CONST:
            raise _Reject("additive constant too large")
        return ("bin", d.op, ivt, invt, aiv, d.dst.type), True, None
    raise _Reject(f"unsupported op {d.opcode} on IV path")


def _analyze_iv_free(value, ctx):
    """Accept ``value`` only when IV-free; returns its tree."""
    tree, ivdep, _narrow = _analyze_value(value, ctx)
    if ivdep:
        raise _Reject("IV-dependent where invariance is required")
    return tree


# -- guard emission ----------------------------------------------------------


class _Emitter:
    def __init__(self, func, out):
        self.func = func
        self.out = out
        self.ctx = None
        self._inv_cache = {}

    def fresh(self, irtype, hint):
        return self.func.new_reg(irtype, hint)

    def emit(self, instr):
        self.out.append(instr)
        return instr

    def value_of(self, tree, endpoint):
        """Re-emit ``tree`` with the IV replaced by ``endpoint``;
        returns the Value holding the result."""
        kind = tree[0]
        if kind == "inv":
            return self.invariant_value(tree[1])
        if kind == "iv":
            return endpoint
        if kind == "sext":
            src = self.value_of(tree[1], endpoint)
            dst = self.fresh(tree[2], "wg")
            self.emit(ins.Cast(dst=dst, kind="sext", src=src))
            return dst
        if kind == "gep":
            base = self.value_of(tree[1], endpoint)
            off = self.value_of(tree[2], endpoint)
            dst = self.fresh(tree[3], "wg")
            self.emit(ins.Gep(dst=dst, base=base, offset=off))
            return dst
        if kind == "bin":
            _, op, ivt, invt, iv_is_a, irtype = tree
            ivv = self.value_of(ivt, endpoint)
            invv = self.value_of(invt, endpoint)
            a, b = (ivv, invv) if iv_is_a else (invv, ivv)
            dst = self.fresh(irtype, "wg")
            self.emit(ins.BinOp(dst=dst, op=op, a=a, b=b))
            return dst
        raise AssertionError(f"bad tree node {kind}")

    def invariant_value(self, value):
        """A Value usable in the preheader: loop-invariant operands are
        used directly; IV-free values computed inside the loop are
        re-emitted (pure ops only) on fresh registers."""
        if not isinstance(value, Register):
            return value
        if self.ctx["loop_defs"].get(value.uid, 0) == 0:
            return value
        cached = self._inv_cache.get(value.uid)
        if cached is not None:
            return cached
        d = self.ctx["single_defs"].get(value.uid)
        if d is None or value.uid in self.ctx["banned"]:
            raise _Reject("invariant chain not materializable")
        if d.opcode == "binop":
            if d.op not in _CLONABLE_BINOPS:
                raise _Reject("invariant chain contains a trapping op")
        elif d.opcode not in _CLONABLE_PURE:
            raise _Reject("invariant chain contains an impure op")
        clone = copy.copy(d)
        for attr in ("a", "b", "base", "offset", "src", "addr"):
            operand = getattr(clone, attr, None)
            if isinstance(operand, Register):
                setattr(clone, attr, self.invariant_value(operand))
        clone.dst = self.fresh(d.dst.type, "wg")
        self.emit(clone)
        self._inv_cache[value.uid] = clone.dst
        return clone.dst


# -- the pass ----------------------------------------------------------------


def _exact_i64(emitter, value):
    """Sign-extend ``value`` into a fresh i64 register (exact for every
    stored int of width <= 64)."""
    dst = emitter.fresh(I64, "wg")
    emitter.emit(ins.Cast(dst=dst, kind="sext", src=value))
    return dst


def _narrow_window_terms(emitter, tree, lo64, hi64):
    """Exactness terms for one narrow arithmetic node: the *exact* i64
    value of the node at both endpoints must fit the narrow width."""
    def exact(tree, endpoint64):
        kind = tree[0]
        if kind == "iv":
            return endpoint64
        if kind == "bin":
            _, op, ivt, invt, iv_is_a, irtype = tree
            sub = exact(ivt, endpoint64)
            const = invt[1]
            dst = emitter.fresh(I64, "wg")
            a, b = (sub, const) if iv_is_a else (const, sub)
            emitter.emit(ins.BinOp(dst=dst, op=op, a=a, b=b))
            return dst
        raise _Reject("narrow window over unsupported node")

    _, _op, _ivt, _invt, _iv_is_a, irtype = tree
    bits = irtype.size * 8
    tmin, tmax = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    terms = []
    for endpoint in (lo64, hi64):
        val = exact(tree, endpoint)
        terms.append(_cmp(emitter, "sge", val, Const(tmin, I64)))
        terms.append(_cmp(emitter, "sle", val, Const(tmax, I64)))
    return terms


def _cmp(emitter, pred, a, b):
    dst = emitter.fresh(I64, "wg")
    emitter.emit(ins.Cmp(dst=dst, pred=pred, a=a, b=b))
    return dst


def _and_all(emitter, terms):
    acc = terms[0]
    for term in terms[1:]:
        dst = emitter.fresh(I64, "wg")
        emitter.emit(ins.BinOp(dst=dst, op="and", a=acc, b=term))
        acc = dst
    return acc


def _widenable_checks(func, loop, ctx, latch_label, update_index,
                      cfg, continue_label):
    """Collect ``(block_label, check, ptr_tree)`` for every check the
    guard can cover."""
    out = []
    for label in sorted(loop.blocks):
        block = func.block_map[label]
        for index, instr in enumerate(block.instructions):
            # Widenability is the opcode's *declared* capability
            # (policy opcode-trait registry), not a name match; a
            # widenable opcode must carry the SbCheck operand shape
            # (ptr/base/bound/size) the guard builder reads.
            if not traits_of(instr.opcode).widenable \
                    or getattr(instr, "is_fnptr_check", False):
                continue
            if label == latch_label and index >= update_index:
                continue  # would read the post-increment IV value
            if not (isinstance(instr.size, Const)
                    and isinstance(instr.size.value, int)
                    and 0 <= instr.size.value <= _MAX_CONST):
                continue
            info_before = (ctx["info"].coeff_abs,
                           len(ctx["info"].narrow_nodes))
            try:
                ptr_tree, ivdep, narrow = _analyze_value(instr.ptr, ctx)
                if narrow is not None:
                    raise _Reject("narrow pointer value")
                if ivdep and not cfg.dominates(continue_label, label):
                    # An IV-dependent check is covered by the guard's
                    # [S, hi] endpoints only when the header test
                    # already validated the IV *this* iteration.  A
                    # check in the header itself (a condition-
                    # expression access) also evaluates on the final,
                    # exiting iteration with the IV at/past the limit —
                    # an address the guard never probed.
                    raise _Reject("not dominated by the exit test")
                base_tree = _analyze_iv_free(instr.base, ctx)
                bound_tree = _analyze_iv_free(instr.bound, ctx)
            except _Reject:
                ctx["info"].coeff_abs = info_before[0]
                del ctx["info"].narrow_nodes[info_before[1]:]
                continue
            out.append((label, instr, ptr_tree, base_tree, bound_tree))
    return out


def _clone_loop(func, loop):
    """Append an instruction-for-instruction clone of the loop's blocks
    (labels suffixed ``.slow``), with in-loop branch targets remapped.
    Returns the clone's header label."""
    from ..ir.module import BasicBlock

    mapping = {}
    for label in loop.blocks:
        new_label = f"{label}.slow"
        while new_label in func.block_map:
            new_label += "_"
        mapping[label] = new_label
    order = [b.label for b in func.blocks if b.label in loop.blocks]
    for label in order:
        source = func.block_map[label]
        clone = BasicBlock(mapping[label])
        clone._widen_slow = True  # never re-widened: its guard failed
        for instr in source.instructions:
            copied = copy.copy(instr)
            if copied.opcode == "call":
                # Share the original's return-address token: the two
                # copies are the same source-level call site, and token
                # values are observable program state (see
                # Machine._call_site_key).
                copied.sb_site_key = getattr(
                    instr, "sb_site_key", None) or (func.name, id(instr))
            clone.append(copied)
        term = clone.instructions[-1]
        if term.opcode == "br":
            term.label = mapping.get(term.label, term.label)
        elif term.opcode == "cbr":
            term.true_label = mapping.get(term.true_label, term.true_label)
            term.false_label = mapping.get(term.false_label, term.false_label)
        func.blocks.append(clone)
        func.block_map[clone.label] = clone
    return mapping[loop.header]


def _static_trip_count(func, loop, iv, limit, step, inclusive):
    """Exact trip count when both ends are static: the limit is a
    constant and the IV's only definition outside the loop is a
    constant move (the mem2reg init).  None when runtime-dependent."""
    if not (isinstance(limit, Const) and isinstance(limit.value, int)):
        return None
    init = None
    for block in func.blocks:
        if block.label in loop.blocks:
            continue
        for instr in block.instructions:
            dst = getattr(instr, "dst", None)
            if dst is not None and dst.uid == iv.uid:
                if init is not None:
                    return None  # several reaching inits: not static
                init = instr
    if init is None or init.opcode != "mov" \
            or not (isinstance(init.src, Const) and isinstance(init.src.value, int)):
        return None
    start = init.src.value
    last = limit.value if inclusive else limit.value - 1
    if last < start:
        return 0
    return (last - start) // step + 1


def _guard_cost(guard):
    """Cost-model units one evaluation of the guard charges (plus the
    terminating cbr)."""
    total = OP_COSTS["cbr"]
    for instr in guard:
        if instr.opcode == "binop":
            total += OP_COSTS["binop." + instr.op]
        else:
            total += OP_COSTS.get(instr.opcode, 1)
    return total


def _profitable(func, loop, guard, iv, limit, step, inclusive, checks,
                n_terms):
    """Whether widening pays for itself in cost-model units.  The guard
    runs once per loop entry; each widened check saves its per-iteration
    cost.  With a static trip count the comparison is exact; with a
    runtime bound the loop must plausibly amortize the guard within
    ``_ASSUMED_MIN_TRIPS`` iterations (short-trip inner loops entered
    many times otherwise become net losses, as the ``go`` board scans
    demonstrate)."""
    per_iter = OP_COSTS["sb.check"] * len(checks)
    # The and-reduction is emitted after this gate: n_terms - 1 ands.
    cost = _guard_cost(guard) + OP_COSTS["binop.and"] * max(n_terms - 1, 0)
    trips = _static_trip_count(func, loop, iv, limit, step, inclusive)
    if trips is not None:
        return trips * per_iter > cost + 4
    return per_iter * _ASSUMED_MIN_TRIPS > cost + 4


def _widen_loop(func, cfg, loop):
    """Attempt to version one loop.  Returns the number of checks
    widened (0 when the loop is not eligible)."""
    if getattr(func.block_map[loop.header], "_widen_slow", False):
        return 0  # the slow clone itself: its guard already failed
    instr_count = sum(len(func.block_map[l].instructions)
                      for l in loop.blocks)
    if instr_count > _MAX_LOOP_INSTRS:
        return 0
    for instr in loop.instructions(func):
        # Calls are clonable (their return-address tokens are shared
        # with the original site), with one exception: a setjmp inside
        # the loop could later be longjmp'd to with an arbitrary IV
        # value, warping into the check-free fast path unvalidated.
        # Indirect calls could resolve to setjmp, so they are out too.
        if instr.opcode == "call" and (instr.callee is None
                                       or instr.callee == "setjmp"):
            return 0
    loop_defs = loop_def_counts(func, loop)
    iv = step = latch_label = update_index = add_instr = None
    bound_found = None
    for cand in _iv_candidates(func, loop, loop_defs):
        bound_found = _trip_bound(func, loop, cand[0], loop_defs)
        if bound_found is not None:
            iv, step, latch_label, update_index, add_instr = cand
            break
    if bound_found is None:
        return 0
    limit, inclusive, continue_label = bound_found
    single_defs = _single_defs(func, loop)
    # Values carrying the post-increment IV (the latch add result).
    banned = {add_instr.dst.uid}
    info = _ChainInfo()
    ctx = {"iv": iv, "loop_defs": loop_defs, "single_defs": single_defs,
           "banned": banned, "info": info}
    checks = _widenable_checks(func, loop, ctx, latch_label, update_index,
                               cfg, continue_label)
    if not checks:
        return 0

    guard = []
    emitter = _Emitter(func, guard)
    emitter.ctx = ctx
    try:
        bits = iv.type.size * 8
        typemax = (1 << (bits - 1)) - 1
        terms = []
        # hi = limit - 1 (exclusive) or limit itself (inclusive),
        # exact in i64.
        limit64 = _exact_i64(emitter, emitter.invariant_value(limit))
        if inclusive:
            hi = limit64
        else:
            hi = emitter.fresh(I64, "wg.hi")
            emitter.emit(ins.BinOp(dst=hi, op="sub", a=limit64, b=Const(1, I64)))
        lo64 = _exact_i64(emitter, iv)
        # No-overflow certificate: the first stepped value >= the limit
        # must be representable, else the IV could wrap back under N.
        if inclusive:
            terms.append(_cmp(emitter, "sle", limit64,
                              Const(typemax - step, I64)))
        elif step > 1:
            terms.append(_cmp(emitter, "sle", limit64,
                              Const(typemax - step + 1, I64)))
        if bits == 64:
            # Window terms keep the IV span small enough for the
            # wrap-around argument (see module docstring).
            for v in (lo64, hi):
                terms.append(_cmp(emitter, "sge", v, Const(-_IV64_WINDOW, I64)))
                terms.append(_cmp(emitter, "sle", v, Const(_IV64_WINDOW, I64)))
        for tree in info.narrow_nodes:
            terms.extend(_narrow_window_terms(emitter, tree, lo64, hi))
        for _label, check, ptr_tree, base_tree, bound_tree in checks:
            base_v = emitter.value_of(base_tree, None)
            bound_v = emitter.value_of(bound_tree, None)
            size = check.size.value
            bms = emitter.fresh(PTR, "wg.bms")
            emitter.emit(ins.BinOp(dst=bms, op="sub", a=bound_v,
                                   b=Const(size, I64)))
            terms.append(_cmp(emitter, "uge", bound_v, Const(size, I64)))
            for endpoint in (iv, hi):
                ptr_v = emitter.value_of(ptr_tree, endpoint)
                terms.append(_cmp(emitter, "uge", ptr_v, base_v))
                terms.append(_cmp(emitter, "ule", ptr_v, bms))
    except _Reject:
        return 0  # no structural change was made
    if not _profitable(func, loop, guard, iv, limit, step, inclusive, checks,
                       len(terms)):
        return 0
    ok = _and_all(emitter, terms)

    slow_header = _clone_loop(func, loop)
    pre = ensure_preheader(func, cfg, loop)
    # Install the guard: preheader now ends in cbr ok -> fast / slow.
    pre.instructions[-1:] = guard + [
        ins.CBr(cond=ok, true_label=loop.header, false_label=slow_header)]
    pre.invalidate_compiled()
    # Strip the widened checks from the fast path.
    widened = 0
    for label, check, _pt, _bt, _et in checks:
        block = func.block_map[label]
        block.instructions.remove(check)
        block.invalidate_compiled()
        widened += 1
    func._frame_layout = None
    return widened


def run(func, module=None):
    """Version every eligible innermost loop.  Returns
    ``(loops_widened, checks_widened)``."""
    if not func.blocks:
        return 0, 0
    loops_widened = 0
    checks_widened = 0
    # Each versioning changes the CFG; recompute and retry until no
    # eligible loop remains.  Already-versioned loops are skipped
    # because their fast path no longer contains widenable checks.
    for _ in range(64):
        cfg = CFG(func)
        candidates = [l for l in find_loops(cfg) if l.is_innermost]
        progressed = False
        for loop in candidates:
            widened = _widen_loop(func, cfg, loop)
            if widened:
                loops_widened += 1
                checks_widened += widened
                progressed = True
                break  # structure changed: recompute CFG and loops
        if not progressed:
            break
    return loops_widened, checks_widened
