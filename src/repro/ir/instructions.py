"""IR instruction set.

A deliberately small, LLVM-flavoured instruction set.  Every instruction
is a dataclass; ``opcode`` is a class attribute used by the printer, the
verifier, the interpreter dispatch table and the cost model.

Conventions:

* ``dst`` is always a :class:`~repro.ir.values.Register` (or ``None``).
* Operands are :class:`Value` instances (Register/Const/SymbolRef).
* The last instruction of every basic block is a terminator
  (:class:`Br`, :class:`CBr`, :class:`Ret` or :class:`Unreachable`).
* Loads/stores carry both the IR type moved *and* ``is_pointer_value`` —
  the flag SoftBound keys on to decide whether metadata must be
  propagated through memory (paper Section 3.2: "Only loads and stores
  of pointers are annotated").
"""

from dataclasses import dataclass, field
from typing import Optional

from .irtypes import IRType
from .values import Register, Value

INT_BINOPS = frozenset(
    ["add", "sub", "mul", "sdiv", "udiv", "srem", "urem", "and", "or", "xor", "shl", "lshr", "ashr"]
)
FLOAT_BINOPS = frozenset(["fadd", "fsub", "fmul", "fdiv"])
CMP_PREDS = frozenset(
    ["eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge",
     "feq", "fne", "flt", "fle", "fgt", "fge"]
)
CAST_KINDS = frozenset(
    ["trunc", "zext", "sext", "bitcast", "ptrtoint", "inttoptr", "sitofp", "fptosi", "uitofp", "fptoui"]
)


class Instruction:
    opcode = "?"

    @property
    def is_terminator(self):
        return isinstance(self, (Br, CBr, Ret, Unreachable))


@dataclass
class Alloca(Instruction):
    """Reserve ``size`` bytes in the current frame; dst holds the address.

    ``ctype`` is the C type of the allocated object (used for SoftBound's
    stack-metadata clearing heuristic and for bounds of address-taken
    locals).  ``name`` is the source variable name for diagnostics.
    """

    opcode = "alloca"
    dst: Register = None
    size: int = 0
    align: int = 8
    ctype: object = None
    name: str = ""
    #: Parameter spill slots sit *above* body locals in the frame (as
    #: x86 argument copies do), so buffer overflows in locals can reach
    #: them — the layout Wilander's parameter-targeting attacks assume.
    is_param: bool = False


@dataclass
class Load(Instruction):
    opcode = "load"
    dst: Register = None
    addr: Value = None
    type: IRType = None
    is_pointer_value: bool = False


@dataclass
class Store(Instruction):
    opcode = "store"
    value: Value = None
    addr: Value = None
    type: IRType = None
    is_pointer_value: bool = False


@dataclass
class BinOp(Instruction):
    opcode = "binop"
    dst: Register = None
    op: str = "add"
    a: Value = None
    b: Value = None


@dataclass
class Cmp(Instruction):
    opcode = "cmp"
    dst: Register = None
    pred: str = "eq"
    a: Value = None
    b: Value = None


@dataclass
class Gep(Instruction):
    """Pointer byte-offset arithmetic: ``dst = base + offset``.

    ``field_extent`` is non-None when this GEP computes the address of a
    struct field; it holds the field's size in bytes.  SoftBound's
    sub-object bound shrinking (paper Section 3.1, "Shrinking Pointer
    Bounds") narrows [base, bound) to [dst, dst + field_extent) at such
    instructions.
    """

    opcode = "gep"
    dst: Register = None
    base: Value = None
    offset: Value = None
    field_extent: Optional[int] = None


@dataclass
class Cast(Instruction):
    opcode = "cast"
    dst: Register = None
    kind: str = "bitcast"
    src: Value = None


@dataclass
class Mov(Instruction):
    opcode = "mov"
    dst: Register = None
    src: Value = None


@dataclass
class Call(Instruction):
    """Direct (``callee`` is a name) or indirect (``callee_reg``) call.

    ``arg_ctypes`` carries the C types of the arguments as written at the
    call site — the paper's transformation is driven entirely by the call
    site's argument types (Section 3.3), which is what makes separate
    compilation and unprototyped calls work.
    """

    opcode = "call"
    dst: Optional[Register] = None
    callee: Optional[str] = None
    callee_reg: Optional[Value] = None
    args: list = field(default_factory=list)
    arg_ctypes: list = field(default_factory=list)
    ret_ctype: object = None


@dataclass
class Ret(Instruction):
    opcode = "ret"
    value: Optional[Value] = None


@dataclass
class Br(Instruction):
    opcode = "br"
    label: str = ""


@dataclass
class CBr(Instruction):
    opcode = "cbr"
    cond: Value = None
    true_label: str = ""
    false_label: str = ""


@dataclass
class Unreachable(Instruction):
    opcode = "unreachable"


# -- SoftBound runtime instructions ------------------------------------
#
# The paper's pass inserts *calls* to small C runtime routines that LLVM
# later inlines (Section 6.1).  We model the post-inlining form directly
# as dedicated instructions so the interpreter can dispatch them cheaply
# and the cost model can charge exactly the instruction counts the paper
# reports for them (check ≈ 3, hash lookup ≈ 9, shadow lookup ≈ 5).


@dataclass
class SbCheck(Instruction):
    """Spatial dereference check:
    ``if (ptr < base || ptr + size > bound) abort()`` (paper Section 3.1).

    ``access_kind`` is "load" or "store" — store-only mode emits only the
    latter.  ``is_fnptr_check`` marks the base==bound function-pointer
    encoding check (paper Section 5.2).
    """

    opcode = "sb_check"
    ptr: Value = None
    base: Value = None
    bound: Value = None
    size: Value = None
    access_kind: str = "load"
    is_fnptr_check: bool = False


@dataclass
class SbMetaLoad(Instruction):
    """Disjoint-metadata table lookup keyed by the *address of the
    pointer in memory* (paper Section 3.2): fills the base/bound
    companion registers for a pointer being loaded.

    Under temporal checking the table entry is widened to
    ``(base, bound, key, lock)``; ``dst_key``/``dst_lock`` are the
    temporal companion registers (None in spatial-only builds)."""

    opcode = "sb_meta_load"
    addr: Value = None
    dst_base: Register = None
    dst_bound: Register = None
    dst_key: Register = None
    dst_lock: Register = None


@dataclass
class SbMetaStore(Instruction):
    """Disjoint-metadata table update for a pointer being stored.
    ``key``/``lock`` carry the temporal half of the widened entry
    (None in spatial-only builds)."""

    opcode = "sb_meta_store"
    addr: Value = None
    base: Value = None
    bound: Value = None
    key: Value = None
    lock: Value = None


@dataclass
class SbTemporalCheck(Instruction):
    """Lock-and-key temporal dereference check:
    ``if (*lock != key) abort()``.

    Emitted immediately after the spatial check for the same access, so
    a pointer reaching it has in-bounds (base, bound) — what it may
    lack is a *live* allocation.  ``access_kind`` follows the spatial
    check's load/store discipline (store-only mode emits only stores).
    """

    opcode = "sb_temporal_check"
    ptr: Value = None
    key: Value = None
    lock: Value = None
    access_kind: str = "load"


#: Opcodes that may write the disjoint metadata table: the explicit
#: table instructions, aggregate copies (the runtime copies entries),
#: and calls (the callee may store pointers or free).  Program loads
#: and non-pointer stores cannot reach a *disjoint* table — the
#: incorruptibility property of paper Section 3.4 — which is exactly
#: what lets checkelim deduplicate ``sb_meta_load``s across them.
#: Inline-metadata baselines (fatptr) violate the premise and are
#: excluded from those passes at the pipeline level.
METADATA_TABLE_WRITERS = frozenset(["call", "memcopy", "sb_meta_store"])

#: Opcodes that may *release a lock* (change temporal liveness): only
#: calls — ``free`` is a call, and a frame teardown can only happen at
#: a ``ret`` that ends the path being analyzed.  This is what lets
#: checkelim deduplicate ``sb_temporal_check``s across everything
#: else: between two program points with no intervening call, every
#: lock's value is provably unchanged.
LOCK_RELEASERS = frozenset(["call"])


@dataclass
class MemCopy(Instruction):
    """Aggregate copy (struct assignment).  Distinct from the libc
    ``memcpy`` call so struct assignment can carry its static C type,
    which SoftBound's metadata-copy inference consumes."""

    opcode = "memcopy"
    dst_addr: Value = None
    src_addr: Value = None
    size: int = 0
    ctype: object = None
