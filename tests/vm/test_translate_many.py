"""``MMU.translate_many`` must agree exactly with per-address ``access``.

The batch path collapses runs of same-page accesses into one walk plus
bulk TLB-hit accounting, so everything observable — MmuStats, TlbStats,
TLB contents *and* recency order, page-table render, physical addresses,
and the position of protection faults — has to match the scalar loop.
"""

import random

import numpy as np
import pytest

from repro.errors import ProtectionFault, VmError
from repro.vm import BatchTranslation, MMU, PhysicalMemory


def make_mmu(frames=4, page_size=256, tlb_entries=4, replacement="lru"):
    return MMU(PhysicalMemory(frames, page_size), page_size=page_size,
               tlb_entries=tlb_entries, replacement=replacement)


def make_trace(n, num_pages, page_size, seed, run_len=6, write_fraction=0.3):
    """Page-local runs (the common access pattern) with random writes."""
    rng = random.Random(seed)
    vaddrs, writes = [], []
    while len(vaddrs) < n:
        page = rng.randrange(num_pages)
        for _ in range(rng.randrange(1, run_len)):
            vaddrs.append(page * page_size + rng.randrange(page_size))
            writes.append(rng.random() < write_fraction)
    return np.asarray(vaddrs[:n]), np.asarray(writes[:n])


def scalar_oracle(mmu, vaddrs, writes):
    return [mmu.access(int(v), write=bool(w)).paddr
            for v, w in zip(vaddrs, writes)]


def full_state(mmu):
    return (mmu.stats, mmu.tlb.stats, list(mmu.tlb._entries.items()),
            mmu._clock,
            {pid: t.render() for pid, t in mmu.page_tables.items()},
            mmu.physical.render())


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("replacement", ["lru", "fifo"])
def test_matches_scalar_loop(seed, replacement):
    vaddrs, writes = make_trace(500, num_pages=12, page_size=256, seed=seed)

    oracle = make_mmu(replacement=replacement)
    oracle.create_process(1, 12)
    expected_paddrs = scalar_oracle(oracle, vaddrs, writes)

    batched = make_mmu(replacement=replacement)
    batched.create_process(1, 12)
    result = batched.translate_many(vaddrs, writes=writes)

    assert isinstance(result, BatchTranslation)
    assert result.paddrs.tolist() == expected_paddrs
    assert full_state(batched) == full_state(oracle)


def test_batch_stat_deltas():
    vaddrs, writes = make_trace(300, num_pages=10, page_size=256, seed=4)
    mmu = make_mmu()
    mmu.create_process(1, 10)
    result = mmu.translate_many(vaddrs, writes=writes)

    assert result.accesses == 300
    assert result.accesses == mmu.stats.accesses
    assert result.page_faults == mmu.stats.page_faults
    assert result.evictions == mmu.stats.evictions
    assert result.writebacks == mmu.stats.writebacks
    assert result.tlb_hits == mmu.tlb.stats.hits
    assert result.tlb_hit_rate == pytest.approx(
        result.tlb_hits / result.accesses)
    assert result.fault_rate == pytest.approx(
        result.page_faults / result.accesses)


def test_deltas_exclude_prior_traffic():
    """A second batch reports only its own stats, not the totals."""
    vaddrs, writes = make_trace(200, num_pages=8, page_size=256, seed=5)
    mmu = make_mmu()
    mmu.create_process(1, 8)
    first = mmu.translate_many(vaddrs, writes=writes)
    second = mmu.translate_many(vaddrs, writes=writes)
    assert first.accesses == second.accesses == 200
    assert mmu.stats.accesses == 400
    assert second.page_faults <= first.page_faults


def test_read_only_page_faults_at_exact_position():
    mmu = make_mmu()
    mmu.create_process(1, 8)
    mmu.page_tables[1].entry(2).writable = False
    page = 2 * 256
    vaddrs = np.asarray([0, 4, page, page + 4, page + 8, 64])
    writes = np.asarray([False, False, False, False, True, False])

    oracle = make_mmu()
    oracle.create_process(1, 8)
    oracle.page_tables[1].entry(2).writable = False
    with pytest.raises(ProtectionFault):
        scalar_oracle(oracle, vaddrs, writes)

    with pytest.raises(ProtectionFault, match="read-only page 2"):
        mmu.translate_many(vaddrs, writes=writes)
    # everything before the faulting access went through, as in the loop
    assert full_state(mmu) == full_state(oracle)


def test_read_only_page_reads_are_fine():
    mmu = make_mmu()
    mmu.create_process(1, 8)
    mmu.page_tables[1].entry(0).writable = False
    result = mmu.translate_many(np.asarray([0, 4, 8]))
    assert result.accesses == 3


def test_default_writes_are_loads():
    mmu = make_mmu()
    mmu.create_process(1, 8)
    mmu.translate_many(np.asarray([0, 4, 256]))
    assert not mmu.page_tables[1].entry(0).dirty


def test_explicit_pid():
    mmu = make_mmu(frames=8)
    mmu.create_process(1, 4)
    mmu.create_process(2, 4)
    mmu.translate_many(np.asarray([0, 4]), pid=2)
    assert mmu.page_tables[2].entry(0).valid
    assert not mmu.page_tables[1].entry(0).valid


def test_empty_batch():
    mmu = make_mmu()
    mmu.create_process(1, 4)
    result = mmu.translate_many(np.asarray([], dtype=np.int64))
    assert result.accesses == 0
    assert result.paddrs.size == 0


def test_no_process():
    with pytest.raises(VmError):
        make_mmu().translate_many(np.asarray([0]))


class TestRecordHits:
    def test_counts_and_recency(self):
        mmu = make_mmu()
        mmu.create_process(1, 8)
        for page in range(4):
            mmu.access(page * 256)   # TLB order, LRU first: 0, 1, 2, 3
        before = mmu.tlb.stats.hits
        # pages in their last-use order: each moves to most-recently-used
        mmu.tlb.record_hits(1, (2, 0, 3), 5)
        assert mmu.tlb.stats.hits == before + 5
        assert list(mmu.tlb._entries) == [(0, 1), (0, 2), (0, 0), (0, 3)]

    def test_rejects_negative_count(self):
        mmu = make_mmu()
        mmu.create_process(1, 4)
        mmu.access(0)
        with pytest.raises(VmError):
            mmu.tlb.record_hits(1, (0,), -1)

    def test_rejects_non_resident_entry(self):
        mmu = make_mmu()
        mmu.create_process(1, 8)
        mmu.access(0)
        with pytest.raises(VmError, match="page 3 of pid 1 is not in"):
            mmu.tlb.record_hits(1, (0, 3), 2)


class TestSlots:
    def test_no_dict_on_hot_records(self):
        from repro.vm import FrameInfo, PageTableEntry, Translation

        mmu = make_mmu()
        mmu.create_process(1, 4)
        translation = mmu.access(0x10)
        assert isinstance(translation, Translation)
        entry = mmu.page_tables[1].entry(0)
        assert isinstance(entry, PageTableEntry)
        frame = mmu.physical.owner(translation.frame)
        assert isinstance(frame, FrameInfo)
        for obj in (translation, entry, frame, mmu.tlb.stats):
            assert not hasattr(obj, "__dict__")
