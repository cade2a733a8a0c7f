"""Unit + scenario tests for the MMU (the VM-1/VM-2 homework machinery)."""

import pytest

from repro.errors import ProtectionFault, VmError
from repro.vm import CostModel, MMU, PhysicalMemory


def make_mmu(frames=2, pages=4, page_size=256, tlb_entries=4, tagged=False):
    return MMU(PhysicalMemory(frames, page_size), page_size=page_size,
               tlb_entries=tlb_entries, tagged_tlb=tagged)


class TestTranslation:
    def test_first_access_faults_then_hits(self):
        mmu = make_mmu()
        mmu.create_process(1, 4)
        t1 = mmu.access(0x010)
        assert t1.page_fault and not t1.tlb_hit
        t2 = mmu.access(0x020)  # same page
        assert not t2.page_fault and t2.tlb_hit

    def test_physical_address_composition(self):
        mmu = make_mmu(page_size=256)
        mmu.create_process(1, 4)
        t = mmu.access(0x123)   # vpn 1, offset 0x23
        assert t.vpn == 1
        assert t.paddr == (t.frame << 8) | 0x23

    def test_vpn_out_of_range(self):
        mmu = make_mmu(pages=4, page_size=256)
        mmu.create_process(1, 4)
        with pytest.raises(VmError):
            mmu.access(4 * 256)

    def test_write_sets_dirty(self):
        mmu = make_mmu()
        mmu.create_process(1, 4)
        mmu.access(0x000, write=True)
        assert mmu.page_tables[1].entry(0).dirty

    def test_protection_fault(self):
        mmu = make_mmu()
        mmu.create_process(1, 4)
        mmu.page_tables[1].entry(0).writable = False
        with pytest.raises(ProtectionFault):
            mmu.access(0x000, write=True)

    def test_no_process(self):
        with pytest.raises(VmError):
            make_mmu().access(0)


class TestReplacement:
    def test_lru_eviction_when_ram_full(self):
        mmu = make_mmu(frames=2)
        mmu.create_process(1, 4)
        mmu.access(0 * 256)        # page 0
        mmu.access(1 * 256)        # page 1 — RAM now full
        mmu.access(0 * 256)        # touch page 0 (most recent)
        t = mmu.access(2 * 256)    # must evict page 1
        assert t.page_fault
        assert t.evicted == (1, 1)
        assert mmu.page_tables[1].resident_pages() == [0, 2]

    def test_dirty_eviction_writes_back_to_swap(self):
        mmu = make_mmu(frames=1)
        mmu.create_process(1, 4)
        mmu.access(0, write=True)          # dirty page 0
        t = mmu.access(1 * 256)            # evicts it
        assert t.wrote_back
        assert mmu.swap.contains(1, 0)
        # faulting page 0 back in reads it from swap
        mmu.access(0)
        assert mmu.swap.pages_in == 1

    def test_clean_eviction_skips_writeback(self):
        mmu = make_mmu(frames=1)
        mmu.create_process(1, 4)
        mmu.access(0)              # clean
        t = mmu.access(1 * 256)
        assert t.evicted and not t.wrote_back
        assert not mmu.swap.contains(1, 0)

    def test_fault_counters(self):
        mmu = make_mmu(frames=2)
        mmu.create_process(1, 4)
        for vaddr in (0, 256, 512, 0):
            mmu.access(vaddr)
        # 0,1,2 fault; final 0 faults again (was LRU-evicted)
        assert mmu.stats.page_faults == 4
        assert mmu.stats.evictions == 2


class TestContextSwitching:
    def test_switch_flushes_untagged_tlb(self):
        mmu = make_mmu(frames=4)
        mmu.create_process(1, 4)
        mmu.create_process(2, 4)
        mmu.access(0, pid=1)
        assert len(mmu.tlb) == 1
        mmu.context_switch(2)
        assert len(mmu.tlb) == 0
        assert mmu.stats.context_switches == 1

    def test_tagged_tlb_survives_switch(self):
        mmu = make_mmu(frames=4, tagged=True)
        mmu.create_process(1, 4)
        mmu.create_process(2, 4)
        mmu.access(0, pid=1)
        mmu.context_switch(2)
        assert len(mmu.tlb) == 1

    def test_switch_to_same_pid_is_free(self):
        mmu = make_mmu()
        mmu.create_process(1, 4)
        mmu.access(0)
        mmu.context_switch(1)
        assert mmu.stats.context_switches == 0

    def test_two_process_trace_vm2_style(self):
        """The VM-2 homework: two processes, context switches, LRU."""
        mmu = make_mmu(frames=2)
        mmu.create_process(1, 4)
        mmu.create_process(2, 4)
        results = mmu.run_trace([
            (1, 0x000, False),   # P1 page 0 → fault
            (1, 0x100, True),    # P1 page 1 → fault, RAM full
            (2, 0x000, False),   # switch; P2 page 0 → fault, evicts P1/0
            (1, 0x000, False),   # switch back; P1 page 0 faults again
        ])
        faults = [r.page_fault for r in results]
        assert faults == [True, True, True, True]
        assert results[2].evicted == (1, 0)
        assert mmu.stats.context_switches == 2

    def test_destroy_process_releases_frames(self):
        mmu = make_mmu(frames=2)
        mmu.create_process(1, 4)
        mmu.access(0)
        mmu.destroy_process(1)
        assert mmu.physical.free_count == 2
        assert 1 not in mmu.page_tables

    def test_tagged_tlb_forgets_destroyed_process(self):
        """A reused pid must not hit the dead process's TLB entries."""
        mmu = MMU(num_frames=4, tagged_tlb=True)
        mmu.create_process(1, 4)
        mmu.create_process(2, 4)
        mmu.access(0, pid=1)
        mmu.access(0, pid=2)
        mmu.destroy_process(1)
        assert len(mmu.tlb) == 1                 # pid 2's entry survives
        mmu.create_process(1, 4)
        t = mmu.access(0, pid=1)
        assert not t.tlb_hit
        assert t.page_fault
        assert mmu.access(0, pid=2).tlb_hit

    def test_duplicate_pid_rejected(self):
        mmu = make_mmu()
        mmu.create_process(1, 4)
        with pytest.raises(VmError):
            mmu.create_process(1, 4)


class TestEffectiveAccessTime:
    def test_eat_zero_without_accesses(self):
        assert make_mmu().effective_access_time() == 0.0

    def test_tlb_improves_eat(self):
        # same trace; with a warm TLB, EAT approaches tlb+mem
        mmu = make_mmu(frames=4, tlb_entries=8)
        mmu.create_process(1, 4)
        for _ in range(100):
            mmu.access(0)
        cost = CostModel(memory_time=100, tlb_time=1, fault_service_time=0)
        eat = mmu.effective_access_time(cost)
        assert eat < 110  # near one memory access, not two

    def test_faults_dominate_eat(self):
        mmu = make_mmu(frames=1)
        mmu.create_process(1, 4)
        for vaddr in (0, 256, 512, 768):   # every access faults
            mmu.access(vaddr)
        eat = mmu.effective_access_time()
        assert eat > 1_000_000

    def test_render_state(self):
        mmu = make_mmu()
        mmu.create_process(1, 2)
        mmu.access(0)
        out = mmu.render_state()
        assert "page table" in out and "RAM:" in out
