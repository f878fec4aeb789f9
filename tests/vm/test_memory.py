"""Simulated memory unit tests."""

import ctypes

import pytest

from repro.api import compile_source
from repro.vm.errors import Trap, TrapKind
from repro.vm.memory import HEAP_BASE, Memory


@pytest.fixture
def mem():
    return Memory(heap_size=1 << 20, stack_size=1 << 16)


def test_heap_roundtrip_bytes(mem):
    addr = mem.malloc(64)
    mem.write(addr, b"hello")
    assert mem.read(addr, 5) == b"hello"


def test_int_codec_signed(mem):
    addr = mem.malloc(16)
    mem.write_int(addr, -5, 4)
    assert mem.read_int(addr, 4, signed=True) == -5
    assert mem.read_int(addr, 4, signed=False) == (1 << 32) - 5


def test_int_codec_widths(mem):
    addr = mem.malloc(16)
    for width, value in [(1, -128), (2, 32767), (4, -(1 << 31)), (8, 1 << 62)]:
        mem.write_int(addr, value, width)
        assert mem.read_int(addr, width, signed=True) == value


def test_little_endian_layout(mem):
    addr = mem.malloc(8)
    mem.write_int(addr, 0x0102030405060708, 8)
    assert mem.read(addr, 1) == b"\x08"


def test_f64_codec(mem):
    addr = mem.malloc(8)
    mem.write_f64(addr, 3.25)
    assert mem.read_f64(addr) == 3.25


def test_null_dereference_segfaults(mem):
    with pytest.raises(Trap) as exc:
        mem.read(0, 4)
    assert exc.value.kind is TrapKind.SEGFAULT


def test_unmapped_address_segfaults(mem):
    with pytest.raises(Trap):
        mem.write(0xDEAD_BEEF_0000, b"x")


def test_read_straddling_segment_end_traps(mem):
    end = mem.heap.end
    with pytest.raises(Trap):
        mem.read(end - 2, 4)


def test_malloc_alignment(mem):
    for _ in range(5):
        assert mem.malloc(13) % 16 == 0


def test_malloc_zero_returns_null(mem):
    assert mem.malloc(0) == 0


def test_adjacent_allocations_allow_silent_overflow(mem):
    """The property the whole evaluation rests on: an overflow out of one
    heap block lands in mapped memory (the next block's header/payload)
    and does NOT trap — plain hardware doesn't catch spatial bugs."""
    a = mem.malloc(16)
    b = mem.malloc(16)
    mem.write(a, b"A" * 48)  # spills well past a's 16 bytes
    assert mem.read(a, 1) == b"A"  # no trap occurred


def test_free_and_reuse(mem):
    a = mem.malloc(100)
    mem.free(a)
    b = mem.malloc(100)
    assert b == a  # first-fit reuses the freed block


def test_free_null_is_noop(mem):
    mem.free(0)


def test_free_coalescing(mem):
    blocks = [mem.malloc(1000) for _ in range(3)]
    for block in blocks:
        mem.free(block)
    # After coalescing, a larger-than-any-single-block request fits.
    big = mem.malloc(2800)
    assert big is not None and big != 0


def test_out_of_memory_returns_none(mem):
    assert mem.malloc(1 << 30) is None


def test_allocation_size_tracking(mem):
    addr = mem.malloc(37)
    assert mem.allocation_size(addr) == 37
    mem.free(addr)
    assert mem.allocation_size(addr) is None


def test_peak_heap_accounting(mem):
    a = mem.malloc(1024)
    peak_after_first = mem.peak_heap
    mem.free(a)
    mem.malloc(16)
    assert mem.peak_heap == peak_after_first  # peak is sticky


def test_read_cstring(mem):
    addr = mem.malloc(16)
    mem.write(addr, b"abc\x00def")
    assert mem.read_cstring(addr) == b"abc"


def test_stack_segment_mapped(mem):
    top = mem.stack.end - 8
    mem.write_ptr(top, 0x1234)
    assert mem.read_ptr(top) == 0x1234


def test_read_cstring_large_heap_allocation():
    """Regression for the O(n) per-byte segment walk: a string spanning
    a large heap allocation is read with in-segment scanning, and the
    result is exact (content, terminator position)."""
    big = Memory()  # default 32 MiB heap
    size = 512 * 1024
    addr = big.malloc(size + 1)
    payload = bytes((i % 251) + 1 for i in range(size))  # no NUL bytes
    big.write(addr, payload + b"\x00")
    assert big.read_cstring(addr, limit=1 << 21) == payload
    # A read starting mid-string sees the tail.
    assert big.read_cstring(addr + size - 5, limit=1 << 21) == payload[-5:]


def test_read_cstring_unterminated_hits_limit(mem):
    addr = mem.malloc(64)
    mem.write(addr, b"A" * 64)  # heap beyond is zero, so craft a tight limit
    with pytest.raises(Trap) as exc:
        mem.read_cstring(addr, limit=32)
    assert exc.value.kind is TrapKind.SEGFAULT
    assert "unterminated" in exc.value.detail


def test_read_cstring_running_off_segment_traps_at_exact_address(mem):
    end = mem.heap.end
    start = end - 16
    mem.write(start, b"B" * 16)  # no terminator before the segment end
    with pytest.raises(Trap) as exc:
        mem.read_cstring(start)
    assert exc.value.kind is TrapKind.SEGFAULT
    assert exc.value.address == end  # first unmapped byte


def test_read_cstring_nul_at_limit_boundary_is_unterminated(mem):
    addr = mem.malloc(32)
    mem.write(addr, b"C" * 8 + b"\x00")
    # NUL sits at offset 8 == limit: the bounded scan must not see it.
    with pytest.raises(Trap):
        mem.read_cstring(addr, limit=8)
    assert mem.read_cstring(addr, limit=9) == b"C" * 8


# -- lazily materialized images -------------------------------------------------


def resident_bytes():
    """The process's resident set (``VmRSS``)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no VmRSS line in /proc/self/status")


def host_mapping(segment):
    """The ``/proc/self/maps`` line whose range holds the segment's first
    host byte."""
    view = ctypes.c_char.from_buffer(segment.data)
    address = ctypes.addressof(view)
    del view  # an exported buffer would keep release() from unmapping
    with open("/proc/self/maps") as handle:
        for line in handle:
            low, high = (int(end, 16) for end in line.split()[0].split("-"))
            if low <= address < high:
                return line
    raise AssertionError(f"no mapping holds {address:#x}")


def test_fresh_machine_costs_only_the_pages_it_touches():
    compiled = compile_source("int main(void) { return 0; }", "spatial")
    compiled.instantiate().memory.release()  # imports and templates warm
    before = resident_bytes()
    machine = compiled.instantiate()
    grown = resident_bytes() - before
    machine.memory.release()
    assert grown < 4 << 20


def test_segments_are_private_mappings():
    """Private, so a forked child copies pages on write instead of
    sharing them (``mmap``'s default is a shared ``/dev/zero`` map)."""
    memory = Memory()
    memory.map_globals(64)
    for segment in memory.segments:
        assert host_mapping(segment).split()[1] == "rw-p", segment.name


def test_segment_edges_read_zero_and_round_trip():
    memory = Memory()
    for addr in (memory.heap.end - 8, memory.stack.base):
        assert memory.read_int(addr, 8) == 0
        memory.write_int(addr, 0x0123_4567_89AB_CDEF, 8)
        assert memory.read_int(addr, 8) == 0x0123_4567_89AB_CDEF


def test_first_byte_past_each_segment_traps():
    memory = Memory()
    memory.map_globals(64)
    for segment in memory.segments:
        with pytest.raises(Trap) as exc:
            memory.read(segment.end, 1)
        assert exc.value.kind is TrapKind.SEGFAULT
        assert exc.value.address == segment.end


def test_release_twice_is_harmless():
    memory = Memory()
    memory.map_globals(64)
    memory.release()
    memory.release()
    assert all(segment.data.closed for segment in memory.segments)
