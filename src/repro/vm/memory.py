"""Simulated flat byte-addressable memory.

A 64-bit little-endian address space with four regions:

====================  ==========================  =========================
region                default placement           purpose
====================  ==========================  =========================
NULL guard            ``[0x0, 0x1000)``           never mapped; dereferencing
                                                  NULL-ish pointers segfaults
code                  ``0x1000 + 16*i``           one pseudo-address per
                                                  function (never data-mapped)
globals               ``0x0010_0000 …``           global variable images
heap                  ``0x2000_0000 …``           malloc arena (free list)
stack                 ``… 0x7fff_f000`` (down)    call frames
====================  ==========================  =========================

Crucially, each *segment* is one contiguous mapped range: an overflow
past the end of one stack array or heap block lands in adjacent program
data and silently corrupts it — exactly like real hardware, which is what
gives the paper's attack and bug-detection experiments their teeth.
Only accesses that leave every mapped segment trap (simulated SIGSEGV).

Each segment's bytes are a private anonymous host mapping
(``mmap.MAP_PRIVATE``): the kernel supplies a zero page the first time
a page is touched, so a fresh machine costs only the pages its run
touches, not its full (by default 36 MiB) image, and
:meth:`Memory.release` unmaps them.

Hot-path design: segment resolution is an address-range dispatch (the
three data regions occupy disjoint, ordered ranges) backed by a
last-segment cache, and the scalar codec uses pre-built
:class:`struct.Struct` instances unpacking straight out of the segment
mapping — no per-access linear scan, no intermediate ``bytes`` copy.
The compiled engine's load and store templates inline the same codecs
behind a segment cache of their own per instruction.
"""

import mmap
import struct

from .errors import Trap, TrapKind

NULL_GUARD_END = 0x1000
CODE_BASE = 0x1000
CODE_STRIDE = 16
GLOBALS_BASE = 0x0010_0000
HEAP_BASE = 0x2000_0000
DEFAULT_HEAP_SIZE = 32 * 1024 * 1024
STACK_TOP = 0x7FFF_F000
DEFAULT_STACK_SIZE = 4 * 1024 * 1024

_HEAP_HEADER = 16
_HEAP_MAGIC = 0x5AFEB10C

#: Pre-built struct codecs for the power-of-two scalar widths, keyed by
#: ``(width, signed)``.  Other widths fall back to int.to_bytes/from_bytes.
_SCALAR_CODECS = {
    (1, True): struct.Struct("<b"),
    (1, False): struct.Struct("<B"),
    (2, True): struct.Struct("<h"),
    (2, False): struct.Struct("<H"),
    (4, True): struct.Struct("<i"),
    (4, False): struct.Struct("<I"),
    (8, True): struct.Struct("<q"),
    (8, False): struct.Struct("<Q"),
}
_F64 = struct.Struct("<d")


class Segment:
    __slots__ = ("name", "base", "data", "end")

    def __init__(self, name, base, size):
        self.name = name
        self.base = base
        self.data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self.end = base + size

    def contains(self, addr, size):
        return self.base <= addr and addr + size <= self.end


class Memory:
    """The address space: segment registry plus scalar codec."""

    def __init__(self, heap_size=DEFAULT_HEAP_SIZE, stack_size=DEFAULT_STACK_SIZE):
        self.segments = []
        self.heap = Segment("heap", HEAP_BASE, heap_size)
        self.stack = Segment("stack", STACK_TOP - stack_size, stack_size)
        self.globals_segment = None
        self.segments.extend([self.heap, self.stack])
        self._last = self.heap  # last-segment cache
        # Heap allocator state: sorted free list of (offset, size) within
        # the heap segment, plus live allocation registry for free() and
        # the observers the baseline checkers attach.
        self._free_list = [(0, heap_size)]
        self.allocations = {}  # payload addr -> size
        self.bytes_in_use = 0
        self.peak_heap = 0

    # -- segment management ------------------------------------------------

    def release(self):
        """Unmap every segment's pages, keeping the layout (a finished
        run's image; closures that captured a segment's mapping see it
        closed too).  Releasing twice is harmless."""
        for segment in self.segments:
            segment.data.close()

    def map_globals(self, size):
        self.globals_segment = Segment("globals", GLOBALS_BASE, max(size, 1))
        self.segments.append(self.globals_segment)
        return self.globals_segment

    def _segment_for(self, addr, size):
        # Last-segment cache: straight-line code overwhelmingly touches
        # the segment it touched last.
        seg = self._last
        if seg.base <= addr and addr + size <= seg.end:
            return seg
        # Address-range dispatch: the three data regions are disjoint and
        # ordered (globals < heap < stack), so the address alone names
        # the only possible segment.
        if addr >= HEAP_BASE:
            seg = self.heap if addr < self.heap.end else self.stack
        else:
            seg = self.globals_segment
        if seg is not None and seg.base <= addr and addr + size <= seg.end:
            self._last = seg
            return seg
        # Generic fallback (exotic layouts, straddling accesses).
        for seg in self.segments:
            if seg.base <= addr and addr + size <= seg.end:
                self._last = seg
                return seg
        return None

    # -- raw access --------------------------------------------------------

    def read(self, addr, size):
        segment = self._segment_for(addr, size)
        if segment is None:
            raise Trap(TrapKind.SEGFAULT, f"read of {size} bytes", address=addr)
        off = addr - segment.base
        return bytes(segment.data[off : off + size])

    def write(self, addr, data):
        segment = self._segment_for(addr, len(data))
        if segment is None:
            raise Trap(TrapKind.SEGFAULT, f"write of {len(data)} bytes", address=addr)
        off = addr - segment.base
        segment.data[off : off + len(data)] = data

    # -- scalar codec --------------------------------------------------------

    def read_int(self, addr, width, signed=True):
        codec = _SCALAR_CODECS.get((width, signed))
        segment = self._segment_for(addr, width)
        if segment is None:
            raise Trap(TrapKind.SEGFAULT, f"read of {width} bytes", address=addr)
        if codec is None:
            off = addr - segment.base
            return int.from_bytes(segment.data[off : off + width], "little",
                                  signed=signed)
        return codec.unpack_from(segment.data, addr - segment.base)[0]

    def write_int(self, addr, value, width):
        codec = _SCALAR_CODECS.get((width, False))
        segment = self._segment_for(addr, width)
        if segment is None:
            raise Trap(TrapKind.SEGFAULT, f"write of {width} bytes", address=addr)
        mask = (1 << (width * 8)) - 1
        if codec is None:
            off = addr - segment.base
            segment.data[off : off + width] = (value & mask).to_bytes(width, "little")
        else:
            codec.pack_into(segment.data, addr - segment.base, value & mask)

    def read_f64(self, addr):
        segment = self._segment_for(addr, 8)
        if segment is None:
            raise Trap(TrapKind.SEGFAULT, "read of 8 bytes", address=addr)
        return _F64.unpack_from(segment.data, addr - segment.base)[0]

    def write_f64(self, addr, value):
        segment = self._segment_for(addr, 8)
        if segment is None:
            raise Trap(TrapKind.SEGFAULT, "write of 8 bytes", address=addr)
        _F64.pack_into(segment.data, addr - segment.base, float(value))

    def read_ptr(self, addr):
        return self.read_int(addr, 8, signed=False)

    def write_ptr(self, addr, value):
        self.write_int(addr, value, 8)

    # -- strings ---------------------------------------------------------------

    def read_cstring(self, addr, limit=1 << 20):
        """Read a NUL-terminated string; traps if it runs off the map.

        Scans for the terminator inside each segment's mapping (one
        ``find`` per segment) instead of one trapped read per byte;
        behaviour — including the trap raised for unterminated or
        unmapped strings — is identical to the byte-at-a-time loop.
        """
        pieces = []
        collected = 0
        cursor = addr
        while collected < limit:
            segment = self._segment_for(cursor, 1)
            if segment is None:
                raise Trap(TrapKind.SEGFAULT, "read of 1 bytes", address=cursor)
            data = segment.data
            off = cursor - segment.base
            # The terminator must appear before the limit is exhausted.
            cap = min(len(data), off + (limit - collected))
            idx = data.find(b"\0", off, cap)
            if idx >= 0:
                pieces.append(bytes(data[off:idx]))
                return b"".join(pieces)
            pieces.append(bytes(data[off:cap]))
            collected += cap - off
            cursor = segment.base + cap
        raise Trap(TrapKind.SEGFAULT, "unterminated string", address=addr)

    # -- heap allocator ------------------------------------------------------

    def malloc(self, size):
        """Allocate ``size`` payload bytes; returns the payload address.

        Returns 0 (NULL) for zero-size requests, raises OUT_OF_MEMORY via
        a None-return sentinel handled by the libc layer when exhausted.
        """
        if size <= 0:
            return 0
        need = _align16(size) + _HEAP_HEADER
        for i, (off, avail) in enumerate(self._free_list):
            if avail >= need:
                remaining = avail - need
                if remaining >= 32:
                    self._free_list[i] = (off + need, remaining)
                else:
                    need = avail  # absorb the tail fragment
                    del self._free_list[i]
                payload = self.heap.base + off + _HEAP_HEADER
                self.write_int(self.heap.base + off, need, 8)
                self.write_int(self.heap.base + off + 8, _HEAP_MAGIC, 8)
                self.allocations[payload] = size
                self.bytes_in_use += need
                self.peak_heap = max(self.peak_heap, self.bytes_in_use)
                return payload
        return None  # out of memory

    def free(self, payload):
        """Release an allocation.  Freeing NULL is a no-op; freeing an
        unknown address is ignored (glibc would corrupt or abort; our
        workloads don't rely on either)."""
        if payload == 0:
            return
        size = self.allocations.pop(payload, None)
        if size is None:
            return
        off = payload - _HEAP_HEADER - self.heap.base
        block = self.read_int(self.heap.base + off, 8)
        self.bytes_in_use -= block
        self._free_insert(off, block)

    def _free_insert(self, off, size):
        # Keep the free list sorted and coalesce neighbours.
        entries = self._free_list
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if entries[mid][0] < off:
                lo = mid + 1
            else:
                hi = mid
        entries.insert(lo, (off, size))
        # Coalesce with successor then predecessor.
        if lo + 1 < len(entries) and entries[lo][0] + entries[lo][1] == entries[lo + 1][0]:
            entries[lo] = (entries[lo][0], entries[lo][1] + entries[lo + 1][1])
            del entries[lo + 1]
        if lo > 0 and entries[lo - 1][0] + entries[lo - 1][1] == entries[lo][0]:
            entries[lo - 1] = (entries[lo - 1][0], entries[lo - 1][1] + entries[lo][1])
            del entries[lo]

    def allocation_size(self, payload):
        return self.allocations.get(payload)


def _align16(value):
    return (value + 15) & ~15
