"""Unit tests for the memory-bus implementations themselves."""

import pytest

from repro.clib.address_space import HEAP_BASE, TEXT_BASE, AddressSpace
from repro.errors import BusError, SegmentationFault
from repro.obs import TraceRecorder
from repro.system.bus import (
    BUS_KINDS,
    CachedBus,
    CostModel,
    FlatBus,
    MemoryBus,
    VirtualBus,
    make_bus,
)


class TestFlatBus:
    def test_counts_and_charges(self):
        bus = FlatBus(cost=CostModel(memory_time=50.0))
        bus.write(HEAP_BASE, b"abcd")
        bus.read(HEAP_BASE, 4)
        bus.read(HEAP_BASE, 2)
        assert (bus.stats.loads, bus.stats.stores, bus.stats.fetches) \
            == (2, 1, 0)
        assert bus.stats.cycles == 3 * 50.0
        assert bus.stats.counters()["cycles_memory"] == 150.0

    def test_typed_helpers_ride_the_seam(self):
        bus = FlatBus()
        bus.store_uint(HEAP_BASE, 0xCAFE, 4)
        assert bus.load_uint(HEAP_BASE, 4) == 0xCAFE
        assert bus.stats.accesses == 2

    def test_view_is_the_bus(self):
        bus = FlatBus()
        assert bus.view() is bus
        assert bus.view(7) is bus


class TestCachedBus:
    def test_rescan_hits_l1(self):
        bus = CachedBus()
        for _ in range(2):
            for i in range(8):
                bus.read(HEAP_BASE + i * 16, 4)
        l1 = bus.hierarchy.levels[0].stats
        assert l1.accesses == 16
        assert l1.hits == 8                       # second sweep all hits
        assert bus.stats.counters()["cycles_cache"] > 0

    def test_miss_costs_more_than_hit(self):
        bus = CachedBus()
        bus.read(HEAP_BASE, 4)                    # cold miss: L1+L2+RAM
        miss_cycles = bus.stats.cycles
        bus.read(HEAP_BASE, 4)                    # L1 hit
        hit_cycles = bus.stats.cycles - miss_cycles
        assert miss_cycles == pytest.approx(1 + 10 + 100)
        assert hit_cycles == pytest.approx(1)

    def test_faults_unchanged(self):
        bus = CachedBus()
        with pytest.raises(SegmentationFault):
            bus.write(TEXT_BASE, b"x")
        assert bus.stats.stores == 0              # faulted before accounting


class TestVirtualBus:
    def test_per_pid_isolation(self):
        bus = VirtualBus()
        bus.create_process(1)
        bus.create_process(2)
        bus.view(1).write(HEAP_BASE, b"one!")
        bus.view(2).write(HEAP_BASE, b"two!")
        assert bus.view(1).read(HEAP_BASE, 4) == b"one!"
        assert bus.view(2).read(HEAP_BASE, 4) == b"two!"

    def test_context_switch_flushes_tlb(self):
        bus = VirtualBus()
        bus.create_process(1)
        bus.create_process(2)
        bus.view(1).read(HEAP_BASE, 4)            # pid 1 is already current
        assert bus.mmu.tlb.stats.flushes == 0
        bus.view(2).read(HEAP_BASE, 4)            # switch: untagged TLB flush
        assert bus.mmu.tlb.stats.flushes == 1
        bus.view(1).read(HEAP_BASE, 4)            # and back again
        assert bus.mmu.tlb.stats.flushes == 2
        assert bus.mmu.stats.context_switches == 2

    def test_tlb_hit_after_fault(self):
        bus = VirtualBus()
        view = bus.create_process(1)
        view.read(HEAP_BASE, 4)                   # page fault + TLB fill
        assert bus.mmu.stats.page_faults == 1
        view.read(HEAP_BASE + 8, 4)               # same page: TLB hit
        assert bus.mmu.tlb.stats.hits == 1
        assert bus.stats.breakdown["fault"] == bus.cost.fault_service_time

    def test_page_crossing_translates_both_pages(self):
        bus = VirtualBus()
        view = bus.create_process(1)
        last = HEAP_BASE + bus.page_size - 2
        view.write(last, b"abcd")                 # straddles a page boundary
        assert bus.mmu.stats.accesses == 2
        assert bus.mmu.stats.page_faults == 2
        assert view.read(last, 4) == b"abcd"

    def test_traced_page_crossing_keeps_per_access_records(self):
        """A lone access is one translate and one probe per page it
        touches, traced as such, with no batch-end samples."""
        def traced_bus():
            bus = VirtualBus(recorder=TraceRecorder(policies={"*": "all"}))
            bus.create_process(1).read(HEAP_BASE, 4)
            return bus

        bus, walk = traced_bus(), traced_bus()
        last = HEAP_BASE + bus.page_size - 2
        bus.view(1).read(last, 4)
        vpn_of = walk._proc(1).vpn_of
        paddrs = [walk.mmu.translate((vpn_of[addr // walk.page_size]
                                      * walk.page_size)
                                     | (addr % walk.page_size))[0]
                  for addr in (last, last + 2)]
        for paddr in paddrs:
            walk.hierarchy.probe(paddr)
        events = [[(e.name, e.ts, e.args) for e in b.mmu.recorder.events()]
                  for b in (bus, walk)]
        assert events[0] == events[1]
        # page 0 hits the TLB, page 1 faults; each probe misses L1 and L2
        assert [name for name, _, _ in events[0][-9:]] == [
            "tlb", "vm", "tlb", "page-fault", "vm", "L1", "L2", "L1", "L2"]

    def test_permission_faults_match_flat(self):
        bus = VirtualBus()
        view = bus.create_process(1)
        flat = AddressSpace.standard()
        with pytest.raises(SegmentationFault) as virt_exc:
            view.write(TEXT_BASE, b"x")
        with pytest.raises(SegmentationFault) as flat_exc:
            flat.write(TEXT_BASE, b"x")
        assert str(virt_exc.value) == str(flat_exc.value)

    def test_destroy_releases_frames(self):
        bus = VirtualBus(num_frames=8)
        view = bus.create_process(1)
        view.read(HEAP_BASE, 4)
        assert bus.mmu.physical.free_count < 8
        bus.destroy_process(1)
        assert bus.mmu.physical.free_count == 8
        with pytest.raises(BusError):
            bus.view(1)

    def test_process_lifecycle_errors(self):
        bus = VirtualBus()
        bus.create_process(1)
        with pytest.raises(BusError):
            bus.create_process(1)                 # duplicate pid
        with pytest.raises(BusError):
            bus.view(None)                        # virtual bus needs a pid
        with pytest.raises(BusError):
            bus.view(99)                          # unknown pid

    def test_view_rebinding(self):
        bus = VirtualBus()
        v1 = bus.create_process(1)
        bus.create_process(2)
        assert v1.view() is v1
        assert v1.view(1) is v1
        assert v1.view(2).pid == 2


class TestMakeBus:
    def test_all_kinds_satisfy_protocol(self):
        for kind in BUS_KINDS:
            bus = make_bus(kind)
            assert isinstance(bus, MemoryBus)
            assert bus.kind == kind
            assert bus.describe()

    def test_unknown_kind(self):
        with pytest.raises(BusError):
            make_bus("quantum")

    def test_cost_model_threads_through(self):
        cost = CostModel(memory_time=7.0)
        bus = make_bus("flat", cost=cost)
        bus.read(HEAP_BASE, 4)
        assert bus.stats.cycles == 7.0
