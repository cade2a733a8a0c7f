"""Address division: tag / index / offset.

"As this is a frequent source of confusion for students, we pay
particular attention to how various cache parameters like the block size
and number of lines affect address division" (§III-A, *Caching*). This
module is that lesson as code: a :class:`AddressLayout` computed from the
cache geometry, the division itself, and a rendering that shows the bit
fields the way homework solutions draw them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import is_power_of_two, log2_exact
from repro.errors import CacheConfigError


@dataclass(frozen=True, slots=True)
class AddressParts:
    """One divided address."""
    tag: int
    index: int
    offset: int


@dataclass(frozen=True)
class AddressLayout:
    """Bit-field widths implied by a cache geometry.

    ``num_sets`` is the number of *sets* (for a direct-mapped cache, that
    equals the number of lines).
    """
    address_bits: int
    block_size: int
    num_sets: int
    # derived once per layout (every cache probe divides an address);
    # excluded from equality, hashing and repr
    offset_bits: int = field(init=False, repr=False, compare=False)
    index_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.block_size):
            raise CacheConfigError(
                f"block size {self.block_size} must be a power of two")
        if not is_power_of_two(self.num_sets):
            raise CacheConfigError(
                f"set count {self.num_sets} must be a power of two")
        object.__setattr__(self, "offset_bits", log2_exact(self.block_size))
        object.__setattr__(self, "index_bits", log2_exact(self.num_sets))
        if self.offset_bits + self.index_bits > self.address_bits:
            raise CacheConfigError("cache larger than the address space")

    @property
    def tag_bits(self) -> int:
        return self.address_bits - self.index_bits - self.offset_bits

    def divide(self, address: int) -> AddressParts:
        if not 0 <= address < (1 << self.address_bits):
            raise CacheConfigError(
                f"address {address:#x} exceeds {self.address_bits} bits")
        offset = address & (self.block_size - 1)
        index = (address >> self.offset_bits) & (self.num_sets - 1)
        tag = address >> (self.offset_bits + self.index_bits)
        return AddressParts(tag, index, offset)

    def divide_many(self, addresses):
        """Vectorized :meth:`divide`: one numpy pass over a whole trace.

        ``addresses`` is any int array-like; returns ``(tags, indexes,
        offsets)`` int64 arrays. Raises on the first out-of-range
        address, like :meth:`divide` — but before returning anything.
        """
        import numpy as np
        addrs = np.asarray(addresses, dtype=np.int64)
        if addrs.size:
            bad = (addrs < 0) | (addrs >= (1 << self.address_bits))
            if bad.any():
                first = int(addrs[bad][0])
                raise CacheConfigError(
                    f"address {first:#x} exceeds {self.address_bits} bits")
        offsets = addrs & (self.block_size - 1)
        indexes = (addrs >> self.offset_bits) & (self.num_sets - 1)
        tags = addrs >> (self.offset_bits + self.index_bits)
        return tags, indexes, offsets

    def reassemble(self, parts: AddressParts) -> int:
        """Inverse of :meth:`divide` (used by the property tests)."""
        return ((parts.tag << (self.offset_bits + self.index_bits))
                | (parts.index << self.offset_bits)
                | parts.offset)

    def block_address(self, address: int) -> int:
        """The address of the block containing ``address``."""
        return address & ~(self.block_size - 1)

    def render(self, address: int) -> str:
        """The homework drawing: the address split into labelled fields."""
        parts = self.divide(address)
        tag_s = format(parts.tag, f"0{max(1, self.tag_bits)}b")
        idx_s = (format(parts.index, f"0{self.index_bits}b")
                 if self.index_bits else "")
        off_s = format(parts.offset, f"0{self.offset_bits}b")
        fields = [f"tag={tag_s}"]
        if idx_s:
            fields.append(f"index={idx_s}")
        fields.append(f"offset={off_s}")
        return (f"{address:#010x} -> " + " | ".join(fields)
                + f"  (t:{self.tag_bits} i:{self.index_bits} "
                  f"o:{self.offset_bits} bits)")
