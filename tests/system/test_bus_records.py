"""The packed bus record: one int per deferred access.

Hypothesis draws access sequences over the standard layout — 4-byte
fetches in text; 1-, 2- and 4-byte loads and stores in data, heap and
stack, some of them straddling a 4 KiB page — and checks that
``decode_access`` inverts ``encode_access``, and that replaying the
encoded batch (``replay_block`` on the flat and cached buses,
``replay_block_for`` on the virtual bus) accounts exactly what the
scalar ``read``/``write``/``fetch`` drive does: ``BusStats``, every
cache level's stats, and the TLB and MMU stats. On the virtual bus, so
does the interpreted path: the same accesses through a process view's
``deferred()`` view, whose ``pending`` records ``replay_block``
accounts.

The virtual bus decodes records through a memo per process, keyed by
page, kind and size. Two processes whose layouts map the same address
to different linear pages replay the same records, in turn, and each
must leave the bus state its own scalar drive leaves.

Tier-1 draws a few sequences. ``BUS_RECORD_EXAMPLES`` sets how many
(CI runs more).
"""

import os
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.clib.address_space import (DATA_BASE, AddressSpace, MemoryRegion,
                                      decode_access, encode_access)
from repro.errors import CMemoryError
from repro.system.bus import CachedBus, FlatBus, VirtualBus

from .test_virtual_slice_state import bus_state

EXAMPLES = int(os.environ.get("BUS_RECORD_EXAMPLES", "25"))
PAGE = 4096
PAGE_SHIFT = 12
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


def drive(view, accesses):
    for kind, address, size in accesses:
        if kind == "store":
            view.write(address, bytes(size))
        elif kind == "load":
            view.read(address, size)
        else:
            view.fetch(address, size)


def scalar_drive(bus, accesses, pid=1):
    drive(bus.view(pid), accesses)


def batch_drive(bus, accesses, pid=1):
    records = [encode_access(*access) for access in accesses]
    if isinstance(bus, VirtualBus):
        bus.replay_block_for(pid, records)
    else:
        bus.replay_block(records)


def deferred_drive(bus, accesses):
    """An interpreted slice's path: bytes through the deferred view,
    then its pending records replayed in one batch."""
    view = bus.view(1)
    deferred = view.deferred()
    drive(deferred, accesses)
    view.replay_block(deferred.pending)


#: the drives each bus must account as its scalar drive does
DRIVES = {"flat": (batch_drive,), "cached": (batch_drive,),
          "virtual": (batch_drive, deferred_drive)}


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
    for kind, drives in DRIVES.items():
        scalar = fresh(kind)
        scalar_drive(scalar, accesses)
        for replay in drives:
            batch = fresh(kind)
            replay(batch, accesses)
            where = kind, replay.__name__
            assert batch.stats.accesses == len(accesses), where
            assert vars(batch.stats) == vars(scalar.stats), where
            if kind == "flat":
                continue
            for b, s in zip(batch.hierarchy.levels,
                            scalar.hierarchy.levels):
                assert vars(b.stats) == vars(s.stats), where
            if kind == "virtual":
                assert (asdict(batch.mmu.tlb.stats)
                        == asdict(scalar.mmu.tlb.stats)), where
                assert (asdict(batch.mmu.stats)
                        == asdict(scalar.mmu.stats)), where


def two_layouts():
    """A virtual bus with pid 1 on the standard layout and pid 2 with
    two extra pages mapped before ``data``, so that every address from
    ``data`` up lies in a different linear page in each."""
    bus = VirtualBus()
    bus.create_process(1)
    space = AddressSpace.standard()
    space.map_region(MemoryRegion("rodata", DATA_BASE - 2 * PAGE, 2 * PAGE))
    bus.create_process(2, space)
    return bus


@settings(max_examples=EXAMPLES, deadline=None)
@given(accesses=ACCESSES)
def test_each_process_decodes_records_by_its_own_pages(accesses):
    scalar, batch = two_layouts(), two_layouts()
    for _ in range(2):
        for pid in (1, 2):
            scalar_drive(scalar, accesses, pid)
            batch_drive(batch, accesses, pid)
            assert bus_state(batch) == bus_state(scalar), pid
    # one memo entry per page, kind and size drawn, however many
    # addresses: the memo is bounded by mapped pages x kinds x sizes
    keys = {encode_access(*access) >> PAGE_SHIFT for access in accesses}
    for pid in (1, 2):
        assert len(batch._proc(pid).memo) == len(keys)


@pytest.mark.parametrize("address, size", [(-1, 4), (2 ** 32, 4),
                                           (0x1000, -1)])
def test_an_access_outside_a_32_bit_space_is_refused(address, size):
    with pytest.raises(CMemoryError):
        encode_access("load", address, size)
