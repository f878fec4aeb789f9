"""Host speed: a fixed reference kernel timed between units of work.

The benchmark runs on a few cores of a shared host whose speed changes
with its neighbours' load: the same pure-Python loop runs up to 1.5x
slower for seconds at a time, and about twice as slow from one hour to
the next.  Raw times then measure the host as much as the program.  The
in-process workloads therefore time :func:`kernel` -- a small
register-machine interpreter over a byte-addressed memory, the same
kind of work as the program's engine but none of its code -- right
before and right after each unit of work, and divide the unit's time by
the host's slowness around it: the mean of those two kernel times over
:data:`NOMINAL_S`.  A change to the program moves the normalised times;
a change in the host's speed slows the kernel as well and cancels.  The
two kernel times nearest the unit track it best: the host's slow spells
last seconds, so a wider window of kernel times tracked worse.  The
README gives the spreads this removed.
"""

import gc
import random
import statistics
import struct
import time

#: Seconds of one :func:`kernel` call at the reference host speed: about
#: its median on a 2-vCPU Xeon VM, where it read 3-5 ms as the host's
#: load changed.  It sets the scale of normalised times (a unit of work
#: at that speed reads its raw time) and must never change, or every
#: recorded normalised time would move with it.
NOMINAL_S = 0.004
#: Seconds to fault in 8 MiB of fresh zeroed pages at the reference host
#: speed (see :class:`HostClock`'s ``fault_bytes``).
NOMINAL_FAULT_S = 0.005
_FAULT_UNIT = 8 << 20
_PAGE = 4096

_WORD = struct.Struct("<q")
#: Small enough to stay in cache, so the kernel times the interpreter
#: and the core, as the engine's hot loop mostly does; a memory of
#: megabytes made it track the corpus cells less closely.  Small also
#: keeps it clear of the page faults a fork leaves behind (every page of
#: a process that forks, as the fresh-batch pool does, is write-protected
#: until written again).
_MEMORY_BYTES = 64 << 10
_OPS = 10_000


def _program():
    """A fixed instruction list: loads, stores, arithmetic, branches and
    metadata-table updates over eight registers and a 64 KiB memory."""
    rng = random.Random(20090615)
    code = []
    for _ in range(256):
        op = rng.choice(("load", "store", "add", "mul", "cmp", "meta"))
        code.append((op, rng.randrange(8), rng.randrange(8),
                     rng.randrange(_MEMORY_BYTES // 8) * 8))
    return tuple(code)


_CODE = _program()


def kernel(memory, meta, ops=_OPS):
    """Interpret ``ops`` instructions of the fixed program over
    ``memory`` (a bytearray of ``_MEMORY_BYTES``) and ``meta`` (a dict);
    returns a checksum so nothing is optimised away."""
    regs = [1, 2, 3, 4, 5, 6, 7, 8]
    word, code = _WORD, _CODE
    size = len(code)
    pc = 0
    for _ in range(ops):
        op, a, b, address = code[pc]
        address = (address + regs[b] * 8) % (_MEMORY_BYTES - 8)
        if op == "load":
            regs[a] = word.unpack_from(memory, address)[0]
        elif op == "store":
            word.pack_into(memory, address, regs[a] & 0x7FFFFFFF)
        elif op == "add":
            regs[a] = (regs[a] + regs[b]) & 0xFFFFFFFF
        elif op == "mul":
            regs[a] = (regs[a] * 31 + regs[b]) & 0xFFFFFFFF
        elif op == "cmp":
            if regs[a] < regs[b]:
                pc = (pc + 3) % size
                continue
        else:
            slot = (address >> 6) & 0x3FF
            meta[slot] = (regs[a], regs[b])
            regs[a] = meta.get(slot ^ 1, (0, 0))[0]
        pc = (pc + 1) % size
    return sum(regs)


class HostClock:
    """Normalises the times of consecutive units of work.

    Create it right before the first unit; after each unit, pass the
    unit's raw seconds to :meth:`normalise`.  Every call times one
    kernel, which closes this unit and opens the next.

    ``fault_bytes`` adds to each tick the faulting-in of that much fresh
    memory, for work dominated by a fresh machine's 36 MiB image (a warm
    serve request) rather than by the engine.
    """

    def __init__(self, fault_bytes=0):
        self.memory = bytearray(_MEMORY_BYTES)
        self.meta = {}
        self.fault_bytes = fault_bytes
        self.nominal = NOMINAL_S + NOMINAL_FAULT_S * fault_bytes / _FAULT_UNIT
        #: Host slowness around each normalised unit, in order.
        self.slowness = []
        self._last = self.tick()

    def tick(self):
        """Slowness now: one kernel's seconds over its nominal seconds.
        The collector is off meanwhile: the kernel's few allocations
        would otherwise trigger collections whose cost depends on the
        workload's heap, not on the host."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel(self.memory, self.meta)
            if self.fault_bytes:
                fresh = bytearray(self.fault_bytes)
                fresh[::_PAGE] = b"\1" * (self.fault_bytes // _PAGE)
                del fresh
            return (time.perf_counter() - start) / self.nominal
        finally:
            if enabled:
                gc.enable()

    def close_unit(self):
        """The host's slowness around the unit of work that just ended:
        the mean of the kernel times before and after it, over their
        nominal seconds.  The kernel timed here opens the next unit."""
        after = self.tick()
        slowness = (self._last + after) / 2
        self._last = after
        self.slowness.append(slowness)
        return slowness

    def normalise(self, seconds):
        """``seconds`` of a unit that just ended, at the reference host
        speed."""
        return seconds / self.close_unit()

    def median_slowness(self):
        return statistics.median(self.slowness) if self.slowness else 1.0
