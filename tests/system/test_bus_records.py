"""The packed bus record: one int per deferred access.

Hypothesis draws access sequences over the standard layout — 4-byte
fetches in text; 1-, 2- and 4-byte loads and stores in data, heap and
stack, some of them straddling a 4 KiB page — and checks that
``decode_access`` inverts ``encode_access``, and that replaying the
encoded batch (``replay_block`` on the flat and cached buses,
``replay_block_for`` on the virtual bus) accounts exactly what the
scalar ``read``/``write``/``fetch`` drive does: ``BusStats``, every
cache level's stats, and the TLB and MMU stats.

Tier-1 draws a few sequences. ``BUS_RECORD_EXAMPLES`` sets how many
(CI runs more).
"""

import os
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.clib.address_space import (AddressSpace, decode_access,
                                      encode_access)
from repro.errors import CMemoryError
from repro.system.bus import CachedBus, FlatBus, VirtualBus

EXAMPLES = int(os.environ.get("BUS_RECORD_EXAMPLES", "25"))
PAGE = 4096
#: pages of each region the draws touch: enough to miss in the TLB and
#: the caches, few enough to hit in them too
PAGES = 12

LAYOUT = {region.name: region for region in AddressSpace.standard().layout()}


@st.composite
def fetches(draw):
    text = LAYOUT["text"]
    slot = draw(st.integers(0, PAGES * PAGE // 4 - 1))
    return ("fetch", text.start + 4 * slot, 4)


@st.composite
def data_accesses(draw):
    kind = draw(st.sampled_from(("load", "store")))
    region = LAYOUT[draw(st.sampled_from(("data", "heap", "stack")))]
    size = draw(st.sampled_from((1, 2, 4)))
    page = draw(st.integers(0, PAGES - 2))
    if draw(st.booleans()):
        # the last bytes of a page: from a fit up to the page's end to a
        # straddle into the next page (a 1-byte access never straddles)
        offset = PAGE - draw(st.integers(1, size))
    else:
        offset = draw(st.integers(0, PAGE - size))
    return (kind, region.start + page * PAGE + offset, size)


ACCESSES = st.lists(st.one_of(fetches(), data_accesses()), min_size=1,
                    max_size=80)


def fresh(kind):
    if kind == "flat":
        return FlatBus(AddressSpace.standard())
    if kind == "cached":
        return CachedBus(AddressSpace.standard())
    bus = VirtualBus()
    bus.create_process(1)
    return bus


def scalar_drive(bus, accesses):
    view = bus.view(1) if isinstance(bus, VirtualBus) else bus
    for kind, address, size in accesses:
        if kind == "store":
            view.write(address, bytes(size))
        elif kind == "load":
            view.read(address, size)
        else:
            view.fetch(address, size)


def batch_drive(bus, accesses):
    records = [encode_access(*access) for access in accesses]
    if isinstance(bus, VirtualBus):
        bus.replay_block_for(1, records)
    else:
        bus.replay_block(records)


@settings(max_examples=EXAMPLES, deadline=None)
@given(accesses=ACCESSES)
def test_decode_inverts_encode(accesses):
    for access in accesses:
        assert decode_access(encode_access(*access)) == access


@pytest.mark.parametrize("access", [("store", 0, 0),
                                    ("load", 2 ** 32 - 1, 1),
                                    ("fetch", 2 ** 32 - 4, 4),
                                    ("store", 0x0900_0000, 0x10_0000)])
def test_decode_inverts_encode_at_the_edges(access):
    assert decode_access(encode_access(*access)) == access


@settings(max_examples=EXAMPLES, deadline=None)
@given(accesses=ACCESSES)
def test_replayed_records_account_as_the_scalar_drive(accesses):
    for kind in ("flat", "cached", "virtual"):
        scalar, batch = fresh(kind), fresh(kind)
        scalar_drive(scalar, accesses)
        batch_drive(batch, accesses)
        assert batch.stats.accesses == len(accesses), kind
        assert vars(batch.stats) == vars(scalar.stats), kind
        if kind == "flat":
            continue
        for b, s in zip(batch.hierarchy.levels, scalar.hierarchy.levels):
            assert vars(b.stats) == vars(s.stats), kind
        if kind == "virtual":
            assert asdict(batch.mmu.tlb.stats) == asdict(scalar.mmu.tlb.stats)
            assert asdict(batch.mmu.stats) == asdict(scalar.mmu.stats)


@pytest.mark.parametrize("address, size", [(-1, 4), (2 ** 32, 4),
                                           (0x1000, -1)])
def test_an_access_outside_a_32_bit_space_is_refused(address, size):
    with pytest.raises(CMemoryError):
        encode_access("load", address, size)
