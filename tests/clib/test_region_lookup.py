"""Region lookup by bisection, against a linear scan of the regions.

:meth:`AddressSpace.region_for` bisects the regions' sorted ends. Over
random layouts of non-overlapping regions (adjacent ones included, with
random permissions) and accesses near every boundary (below, above and
between regions, and straddling two), it and the typed accessors must
behave exactly as a linear scan for the first containing region does:
the same region, the same bytes, or a :class:`SegmentationFault` with
the same address and message.
"""

from hypothesis import given, settings, strategies as st

from repro.clib.address_space import AddressSpace, MemoryRegion
from repro.errors import SegmentationFault

BASE = 0x1000


@st.composite
def layouts(draw):
    """(start, size, readable, writable, executable) per region, in
    address order; a gap of 0 makes two regions adjacent."""
    regions = []
    at = BASE + draw(st.integers(0, 16))
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(1, 24))
        perms = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
        regions.append((at, size, *perms))
        at += size + draw(st.sampled_from([0, 0, 1, 3, 16]))
    return regions


def build(layout) -> AddressSpace:
    space = AddressSpace()
    # mapped out of order: map_region keeps the lookup sorted
    for i, (start, size, r, w, x) in reversed(list(enumerate(layout))):
        space.map_region(MemoryRegion(f"r{i}", start, size, readable=r,
                                      writable=w, executable=x))
    return space


@st.composite
def accesses(draw, layout):
    """An address within a few bytes of some region boundary (or of the
    space's lowest and highest), and a size of 0 to 9 bytes."""
    edges = [BASE] + [e for start, size, *_ in layout
                      for e in (start, start + size)]
    address = max(0, draw(st.sampled_from(edges)) + draw(st.integers(-9, 9)))
    return address, draw(st.integers(0, 9))


def scan(space: AddressSpace, address: int, size: int):
    """The reference: the first region, in address order, that holds
    ``[address, address + size)``, or None."""
    for region in space.regions:
        if region.start <= address and address + size <= region.end:
            return region
    return None


def outcome(call):
    try:
        return "ok", call()
    except SegmentationFault as exc:
        return "fault", exc.address, str(exc)


def fault(address: int, note: str):
    exc = SegmentationFault(address, note)
    return "fault", exc.address, str(exc)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_region_for_matches_a_linear_scan(data):
    layout = data.draw(layouts())
    space = build(layout)
    for _ in range(12):
        address, size = data.draw(accesses(layout))
        region = scan(space, address, size)
        expected = (fault(address, "unmapped address") if region is None
                    else ("ok", region))
        assert outcome(lambda: space.region_for(address, size)) == expected
        holder = scan(space, address, 1)
        assert space.region_of_address(address) == (
            None if holder is None else holder.name)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_typed_accessors_match_a_linear_scan(data):
    layout = data.draw(layouts())
    space = build(layout)
    shadow = {region.name: bytearray(region.size) for region in space.regions}
    for step in range(16):
        address, size = data.draw(accesses(layout))
        size = max(size, 1)
        region = scan(space, address, size)
        op = data.draw(st.sampled_from(["read", "write", "fetch",
                                        "load_uint", "store_uint"]))
        need = {"read": "readable", "load_uint": "readable",
                "write": "writable", "store_uint": "writable",
                "fetch": "executable"}[op]
        if region is None:
            expected = fault(address, "unmapped address")
        elif not getattr(region, need):
            expected = fault(address, f"{region.name} is not {need}")
        else:
            expected = None
        value = (step * 0x9E3779B1 + address) & ((1 << (8 * size)) - 1)
        raw = value.to_bytes(size, "little")
        if op == "read":
            got = outcome(lambda: space.read(address, size))
        elif op == "fetch":
            got = outcome(lambda: space.fetch(address, size))
        elif op == "load_uint":
            got = outcome(lambda: space.load_uint(address, size))
        elif op == "write":
            got = outcome(lambda: space.write(address, raw))
        else:
            got = outcome(lambda: space.store_uint(address, value, size))
        if expected is not None:
            assert got == expected
            continue
        off = address - region.start
        stored = bytes(shadow[region.name][off:off + size])
        if op in ("write", "store_uint"):
            shadow[region.name][off:off + size] = raw
            assert got == ("ok", None)
        elif op == "load_uint":
            assert got == ("ok", int.from_bytes(stored, "little"))
        else:
            assert got == ("ok", stored)
    for region in space.regions:
        assert bytes(region.data) == bytes(shadow[region.name])
