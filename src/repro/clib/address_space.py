"""A process's address space: text, data, heap, and stack regions.

CS 31 introduces "a process's memory regions (the text, data, heap, and
stack)" and "the OS's role in managing memory and ensuring the integrity
of the stack and heap" (§III-A, *C programming*). :class:`AddressSpace`
is that model: a sparse 32-bit byte-addressable memory made of named
regions with permissions. Touching an unmapped address raises
:class:`~repro.errors.SegmentationFault` — the same observable failure a
C program gets.

The address space also keeps an optional access trace, which is how the
memory-hierarchy module replays "the same program" through the cache and
VM simulators (the course's vertical slice).

Every load, store and fetch of every bus passes through
:meth:`AddressSpace.read`, :meth:`~AddressSpace.write` and
:meth:`~AddressSpace.fetch`, so their per-access cost is kept small: a
region's ``end`` is a plain attribute, :meth:`AddressSpace.region_for`
is one bisection over the regions' sorted ends instead of a scan, and
the trace test is inline.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Literal

from repro.errors import CMemoryError, SegmentationFault

AccessKind = Literal["load", "store", "fetch"]

# Default IA-32-style layout (matches the diagrams in Dive into Systems).
TEXT_BASE = 0x0804_8000
DATA_BASE = 0x0810_0000
HEAP_BASE = 0x0900_0000
STACK_TOP = 0xC000_0000  # stack grows down from just below here


@dataclass(frozen=True)
class Access:
    """One memory access, as recorded in the trace."""
    kind: AccessKind
    address: int
    size: int


# A deferred bus access (a JIT block's or an interpreted step's, on any
# bus) is one int: the address in the low 32 bits, the kind in the two
# bits above them, and the size above those. A list of them holds
# no per-access object for the garbage collector to track, numpy takes
# the addresses and kinds of a batch with a mask and a shift, and a
# JIT block appends a 4-byte access as ``address | <constant>``.

#: kind codes of a record
FETCH, LOAD, STORE = 0, 1, 2
#: a record's kind starts at this bit; its address is the bits below
KIND_SHIFT = 32
#: a record's size starts at this bit
SIZE_SHIFT = KIND_SHIFT + 2
#: a record's address bits
ADDRESS_MASK = (1 << KIND_SHIFT) - 1
_KIND_CODE = {"fetch": FETCH, "load": LOAD, "store": STORE}
_KIND_NAME = ("fetch", "load", "store")


def encode_access(kind: AccessKind, address: int, size: int) -> int:
    """The record of one access of a 32-bit address space."""
    if not 0 <= address <= ADDRESS_MASK or size < 0:
        raise CMemoryError(f"no access of {size} bytes at {address:#x} "
                           "in a 32-bit address space")
    return address | _KIND_CODE[kind] << KIND_SHIFT | size << SIZE_SHIFT


def decode_access(record: int) -> tuple[AccessKind, int, int]:
    """``(kind, address, size)`` of a record: the inverse of
    :func:`encode_access`."""
    return (_KIND_NAME[record >> KIND_SHIFT & 3], record & ADDRESS_MASK,
            record >> SIZE_SHIFT)


class MemoryRegion:
    """A contiguous mapped range with permissions."""

    def __init__(self, name: str, start: int, size: int,
                 *, readable: bool = True, writable: bool = True,
                 executable: bool = False) -> None:
        if size <= 0:
            raise CMemoryError(f"region {name!r} must have positive size")
        if start < 0 or start + size > 2 ** 32:
            raise CMemoryError(f"region {name!r} exceeds the 32-bit space")
        self.name = name
        self.start = start
        self.size = size
        #: one past the last mapped byte (a region never moves or resizes)
        self.end = start + size
        self.readable = readable
        self.writable = writable
        self.executable = executable

    @cached_property
    def data(self) -> bytearray:
        """The region's bytes, zero-filled on first use: most programs
        never touch most of their regions (the megabyte heap above
        all), and zeroing them up front is most of what building an
        address space costs."""
        return bytearray(self.size)

    def contains(self, address: int, size: int = 1) -> bool:
        return self.start <= address and address + size <= self.end

    def __repr__(self) -> str:
        perms = ("r" if self.readable else "-") + \
                ("w" if self.writable else "-") + \
                ("x" if self.executable else "-")
        return (f"MemoryRegion({self.name!r}, {self.start:#010x}-"
                f"{self.end:#010x}, {perms})")


class ByteAddressable:
    """Typed access over a raw ``read``/``write`` byte seam.

    Everything that looks like memory — :class:`AddressSpace` itself and
    every :class:`repro.system.bus.MemoryBus` implementation — derives
    the typed loads/stores (ints, C strings) from the raw byte methods
    defined here exactly once. The ISA machine, the debugger, and the
    pointer/heap/stack models only ever call this interface, which is
    what lets a cache- or MMU-backed bus drop in for a flat space.
    """

    def read(self, address: int, size: int) -> bytes:
        raise NotImplementedError

    def write(self, address: int, data: bytes) -> None:
        raise NotImplementedError

    def fetch(self, address: int, size: int) -> bytes:
        raise NotImplementedError

    # -- typed access -------------------------------------------------------------

    def load_uint(self, address: int, size: int) -> int:
        return int.from_bytes(self.read(address, size), "little")

    def store_uint(self, address: int, value: int, size: int) -> None:
        self.write(address, (value & ((1 << (8 * size)) - 1))
                   .to_bytes(size, "little"))

    def load_int(self, address: int, size: int) -> int:
        raw = self.load_uint(address, size)
        sign = 1 << (8 * size - 1)
        return raw - (1 << (8 * size)) if raw & sign else raw

    def store_int(self, address: int, value: int, size: int) -> None:
        self.store_uint(address, value, size)

    def load_cstring(self, address: int, limit: int = 1 << 16) -> bytes:
        """Read bytes up to (not including) the NUL terminator."""
        out = bytearray()
        addr = address
        while len(out) < limit:
            b = self.read(addr, 1)[0]
            if b == 0:
                return bytes(out)
            out.append(b)
            addr += 1
        raise CMemoryError("unterminated C string (no NUL within limit)")

    def store_cstring(self, address: int, text: bytes | str) -> None:
        data = text.encode() if isinstance(text, str) else text
        self.write(address, data + b"\x00")


class AddressSpace(ByteAddressable):
    """A sparse 32-bit address space built from named regions.

    ``trace=True`` records every access (for cache/VM replay); watchers
    (e.g. memcheck) can also be attached and see every access as it
    happens.
    """

    def __init__(self, *, trace: bool = False) -> None:
        self.regions: list[MemoryRegion] = []
        #: each region's ``end``, in the regions' (address) order
        self._ends: list[int] = []
        self.trace_enabled = trace
        self.trace: list[Access] = []
        self._watchers: list = []

    # -- layout --------------------------------------------------------------

    def map_region(self, region: MemoryRegion) -> MemoryRegion:
        for existing in self.regions:
            if (region.start < existing.end
                    and existing.start < region.end):
                raise CMemoryError(
                    f"region {region.name!r} overlaps {existing.name!r}")
        self.regions.append(region)
        self.regions.sort(key=lambda r: r.start)
        self._ends = [r.end for r in self.regions]
        return region

    @classmethod
    def standard(cls, *, text_size: int = 0x10000, data_size: int = 0x10000,
                 heap_size: int = 0x100000, stack_size: int = 0x10000,
                 trace: bool = False) -> "AddressSpace":
        """The canonical four-region layout from the course diagrams."""
        space = cls(trace=trace)
        space.map_region(MemoryRegion("text", TEXT_BASE, text_size,
                                      writable=False, executable=True))
        space.map_region(MemoryRegion("data", DATA_BASE, data_size))
        space.map_region(MemoryRegion("heap", HEAP_BASE, heap_size))
        space.map_region(MemoryRegion("stack", STACK_TOP - stack_size,
                                      stack_size))
        return space

    def region_named(self, name: str) -> MemoryRegion:
        for r in self.regions:
            if r.name == name:
                return r
        raise CMemoryError(f"no region named {name!r}")

    def region_for(self, address: int, size: int = 1) -> MemoryRegion:
        """The first region (in address order) that contains
        ``[address, address + size)``, or :class:`SegmentationFault`.

        Regions do not overlap, so their ends ascend with their starts:
        the regions ending at or after ``address + size`` are a suffix
        of the list, and only the first of them can contain the access.
        """
        i = bisect_left(self._ends, address + size)
        if i < len(self._ends):
            region = self.regions[i]
            if region.start <= address:
                return region
        raise SegmentationFault(address, "unmapped address")

    def add_watcher(self, watcher) -> None:
        """Attach an object with on_read/on_write(address, size) hooks.

        Watchers see every access in attach order; attaching the same
        watcher twice means it sees each access twice.
        """
        self._watchers.append(watcher)

    def remove_watcher(self, watcher) -> None:
        """Detach a watcher (first occurrence); missing watchers are a no-op."""
        try:
            self._watchers.remove(watcher)
        except ValueError:
            pass

    @property
    def watchers(self) -> tuple:
        """The attached watchers, in notification order (read-only view)."""
        return tuple(self._watchers)

    # -- raw access ------------------------------------------------------------

    def read(self, address: int, size: int) -> bytes:
        region = self.region_for(address, size)
        if not region.readable:
            raise SegmentationFault(address, f"{region.name} is not readable")
        if self.trace_enabled:
            self.trace.append(Access("load", address, size))
        for w in self._watchers:
            w.on_read(address, size)
        off = address - region.start
        return bytes(region.data[off:off + size])

    def write(self, address: int, data: bytes) -> None:
        region = self.region_for(address, len(data))
        if not region.writable:
            raise SegmentationFault(address, f"{region.name} is not writable")
        if self.trace_enabled:
            self.trace.append(Access("store", address, len(data)))
        for w in self._watchers:
            w.on_write(address, len(data))
        off = address - region.start
        region.data[off:off + len(data)] = data

    def fetch(self, address: int, size: int) -> bytes:
        """Instruction fetch: requires execute permission."""
        region = self.region_for(address, size)
        if not region.executable:
            raise SegmentationFault(address,
                                    f"{region.name} is not executable")
        if self.trace_enabled:
            self.trace.append(Access("fetch", address, size))
        off = address - region.start
        return bytes(region.data[off:off + size])

    # -- introspection ---------------------------------------------------------

    def clear_trace(self) -> None:
        self.trace.clear()

    def layout(self) -> Iterator[MemoryRegion]:
        return iter(self.regions)

    def region_of_address(self, address: int) -> str | None:
        """Which region an address falls in, or None — homework helper."""
        try:
            return self.region_for(address).name
        except SegmentationFault:
            return None
