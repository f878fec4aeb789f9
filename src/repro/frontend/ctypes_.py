"""The C type system used by the frontend and lowering.

Models the LP64 data model the paper evaluates on (64-bit x86):
``char`` = 1 byte, ``short`` = 2, ``int`` = 4, ``long`` = 8, pointers = 8,
``float``/``double`` = 8 (we give ``float`` double precision; no workload
depends on single-precision rounding).  Struct layout follows the usual
natural-alignment rules so field offsets — which SoftBound's sub-object
bound shrinking depends on — are realistic.
"""

from dataclasses import dataclass, field

POINTER_SIZE = 8


class CType:
    """Base class.  All types expose ``size``, ``align`` and predicates."""

    size = 0
    align = 1

    @property
    def is_integer(self):
        return isinstance(self, IntType)

    @property
    def is_float(self):
        return isinstance(self, FloatType)

    @property
    def is_arith(self):
        return self.is_integer or self.is_float

    @property
    def is_pointer(self):
        return isinstance(self, PointerType)

    @property
    def is_array(self):
        return isinstance(self, ArrayType)

    @property
    def is_struct(self):
        return isinstance(self, StructType)

    @property
    def is_function(self):
        return isinstance(self, FunctionType)

    @property
    def is_void(self):
        return isinstance(self, VoidType)

    @property
    def is_scalar(self):
        return self.is_arith or self.is_pointer

    def contains_pointer(self):
        """True when a value of this type embeds at least one pointer.

        SoftBound's memcpy/free heuristics (paper Section 5.2) use this
        static-type query to decide whether metadata must be copied or
        cleared.
        """
        if self.is_pointer:
            return True
        if self.is_array:
            return self.element.contains_pointer()
        if self.is_struct:
            return any(f.type.contains_pointer() for f in self.fields)
        return False


@dataclass(frozen=True)
class VoidType(CType):
    size = 0
    align = 1

    def __str__(self):
        return "void"


@dataclass(frozen=True)
class IntType(CType):
    """Integer type of a given byte width and signedness."""

    width: int  # bytes
    signed: bool = True
    name: str = "int"

    @property
    def size(self):
        return self.width

    @property
    def align(self):
        return self.width

    @property
    def min_value(self):
        return -(1 << (self.width * 8 - 1)) if self.signed else 0

    @property
    def max_value(self):
        bits = self.width * 8
        return (1 << (bits - 1)) - 1 if self.signed else (1 << bits) - 1

    def wrap(self, value):
        """Reduce a Python int into this type's representable range."""
        bits = self.width * 8
        value &= (1 << bits) - 1
        if self.signed and value >= 1 << (bits - 1):
            value -= 1 << bits
        return value

    def __str__(self):
        return self.name if self.signed else f"unsigned {self.name}"


@dataclass(frozen=True)
class FloatType(CType):
    name: str = "double"
    size = 8
    align = 8

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class PointerType(CType):
    pointee: CType
    size = POINTER_SIZE
    align = POINTER_SIZE

    def __str__(self):
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(CType):
    element: CType
    length: int

    @property
    def size(self):
        return self.element.size * self.length

    @property
    def align(self):
        return self.element.align

    def __str__(self):
        return f"{self.element}[{self.length}]"


@dataclass(frozen=True)
class Field:
    name: str
    type: CType
    offset: int


@dataclass
class StructType(CType):
    """A (possibly named) struct.  Mutable: named structs may be declared
    forward and completed later; layout is computed by :meth:`seal`."""

    tag: str = ""
    fields: tuple = ()
    _size: int = 0
    _align: int = 1
    complete: bool = False

    @property
    def size(self):
        return self._size

    @property
    def align(self):
        return self._align

    def seal(self, members):
        """Assign field offsets with natural alignment and compute size.

        ``members`` is a sequence of ``(name, CType)`` pairs.
        """
        offset = 0
        align = 1
        fields = []
        for name, ctype in members:
            offset = align_up(offset, ctype.align)
            fields.append(Field(name, ctype, offset))
            offset += ctype.size
            align = max(align, ctype.align)
        self.fields = tuple(fields)
        self._align = align
        self._size = align_up(offset, align) if offset else 0
        self.complete = True
        return self

    def field(self, name):
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def __str__(self):
        return f"struct {self.tag}" if self.tag else "struct <anon>"

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other


@dataclass(frozen=True)
class FunctionType(CType):
    return_type: CType
    params: tuple  # tuple of CType
    varargs: bool = False
    size = 0
    align = 1

    def __str__(self):
        parts = [str(p) for p in self.params]
        if self.varargs:
            parts.append("...")
        return f"{self.return_type}({', '.join(parts)})"


def align_up(value, alignment):
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 1:
        return value
    return (value + alignment - 1) // alignment * alignment


# Canonical instances -------------------------------------------------

VOID = VoidType()
CHAR = IntType(1, True, "char")
UCHAR = IntType(1, False, "char")
SHORT = IntType(2, True, "short")
USHORT = IntType(2, False, "short")
INT = IntType(4, True, "int")
UINT = IntType(4, False, "int")
LONG = IntType(8, True, "long")
ULONG = IntType(8, False, "long")
DOUBLE = FloatType("double")
FLOAT = FloatType("float")
BOOL = INT  # C89-style: comparisons yield int

VOID_PTR = PointerType(VOID)
CHAR_PTR = PointerType(CHAR)


def common_arith_type(a, b):
    """Usual arithmetic conversions, simplified to our type lattice."""
    if a.is_float or b.is_float:
        return DOUBLE
    width = max(a.width, b.width, 4)
    signed = a.signed and b.signed
    if width <= 4:
        return INT if signed else UINT
    return LONG if signed else ULONG


def types_compatible(a, b):
    """Loose compatibility used for assignments/comparisons.

    C's actual rules are more intricate; the subset accepts any
    pointer/pointer and pointer/integer mixing (SoftBound's whole point
    is tolerating arbitrary casts), while still rejecting obviously
    broken cases such as assigning a struct to an int.
    """
    if a is b or a == b:
        return True
    if a.is_arith and b.is_arith:
        return True
    if a.is_pointer and b.is_pointer:
        return True
    if a.is_pointer and b.is_integer or a.is_integer and b.is_pointer:
        return True
    if a.is_struct and b.is_struct:
        return a is b
    return False
