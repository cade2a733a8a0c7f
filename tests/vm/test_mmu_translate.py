"""``MMU.translate`` must agree exactly with ``MMU.access``.

``translate`` is the scalar fast path the virtual bus takes on every
access (a TLB hit skips building a :class:`Translation`); ``access``
stays the homework oracle. Stats, TLB contents and recency order,
page-table bits, frame metadata, swap, the clock and the recorded
trace events must match after every step — across tagged and untagged
TLBs, several processes with context switches, and RAM-full eviction
with dirty writeback.
"""

import random
from dataclasses import astuple

import pytest

from repro.errors import ProtectionFault, VmError
from repro.obs import TraceRecorder
from repro.vm import MMU, PhysicalMemory

PAGE = 256


def make_mmu(*, tagged, frames=4, tlb_entries=4, replacement="lru",
             recorder=None):
    return MMU(PhysicalMemory(frames, PAGE), page_size=PAGE,
               tlb_entries=tlb_entries, tagged_tlb=tagged,
               replacement=replacement, recorder=recorder)


def full_state(mmu):
    return (mmu.stats, mmu.tlb.stats, list(mmu.tlb._entries.items()),
            mmu._clock, mmu.current_pid,
            {pid: [astuple(e) for e in table.entries]
             for pid, table in mmu.page_tables.items()},
            {f: astuple(info) for f, info in mmu.physical.frames.items()},
            list(mmu.physical._free),
            (dict(mmu.swap._slots), mmu.swap.pages_out, mmu.swap.pages_in))


def make_steps(seed, pids, num_pages, n=600):
    """Page-local runs per process, random writes, frequent switches."""
    rng = random.Random(seed)
    steps = []
    while len(steps) < n:
        pid = rng.choice(pids)
        for _ in range(rng.randrange(1, 12)):
            page = rng.randrange(num_pages)
            vaddr = page * PAGE + rng.randrange(PAGE)
            steps.append((pid, vaddr, rng.random() < 0.35))
    return steps[:n]


def run_both(steps, *, tagged, replacement="lru", recorded=False,
             num_pages=10, pids=(1, 2, 3)):
    recs = [TraceRecorder(policies={"*": "all"}) if recorded else None
            for _ in range(2)]
    fast = make_mmu(tagged=tagged, replacement=replacement,
                    recorder=recs[0])
    slow = make_mmu(tagged=tagged, replacement=replacement,
                    recorder=recs[1])
    for mmu in (fast, slow):
        for pid in pids:
            mmu.create_process(pid, num_pages)
    for pid, vaddr, write in steps:
        fast.context_switch(pid)
        got = fast.translate(vaddr, write)
        t = slow.access(vaddr, write=write, pid=pid)
        assert got == (t.paddr, t.tlb_hit, t.page_fault)
    assert full_state(fast) == full_state(slow)
    return fast, slow, recs


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tagged", [False, True])
@pytest.mark.parametrize("replacement", ["lru", "fifo"])
def test_translate_agrees_with_access(seed, tagged, replacement):
    steps = make_steps(seed, pids=[1, 2, 3], num_pages=10)
    fast, _, _ = run_both(steps, tagged=tagged, replacement=replacement)
    # the workload exercised every branch of the fast path and the walk
    assert fast.tlb.stats.hits and fast.tlb.stats.misses
    assert fast.stats.evictions and fast.stats.writebacks
    assert fast.stats.context_switches > 10
    assert fast.swap.pages_in


@pytest.mark.parametrize("tagged", [False, True])
def test_two_processes_single_page_runs(tagged):
    steps = make_steps(7, pids=[1, 2], num_pages=3, n=300)
    fast, _, _ = run_both(steps, tagged=tagged, num_pages=3, pids=(1, 2))
    assert fast.tlb.stats.hit_rate > 0.5


@pytest.mark.parametrize("tagged", [False, True])
def test_translate_records_the_same_events(tagged):
    steps = make_steps(4, pids=[1, 2, 3], num_pages=10, n=300)
    _, _, (fast_rec, slow_rec) = run_both(steps, tagged=tagged,
                                          recorded=True)
    assert len(fast_rec) > 0
    assert list(fast_rec.events()) == list(slow_rec.events())


@pytest.mark.parametrize("resident", [False, True])
def test_write_to_read_only_page_changes_nothing(resident):
    fast, slow = make_mmu(tagged=False), make_mmu(tagged=False)
    for mmu in (fast, slow):
        mmu.create_process(1, 4)
        if resident:
            mmu.access(2 * PAGE)          # page 2 now in the TLB
        mmu.page_tables[1].entry(2).writable = False
    before = full_state(fast)
    with pytest.raises(ProtectionFault):
        fast.translate(2 * PAGE + 8, True)
    with pytest.raises(ProtectionFault):
        slow.access(2 * PAGE + 8, write=True)
    assert full_state(fast) == full_state(slow) == before
    # reads of the read-only page still translate
    assert fast.translate(2 * PAGE + 8, False)[1] == resident


def test_no_running_process():
    mmu = make_mmu(tagged=False)
    with pytest.raises(VmError, match="no process is running"):
        mmu.translate(0, False)
    mmu.create_process(1, 2)
    mmu.destroy_process(1)
    with pytest.raises(VmError, match="no process is running"):
        mmu.translate(0, False)


def test_out_of_range_page_raises_before_any_change():
    fast, slow = make_mmu(tagged=True), make_mmu(tagged=True)
    for mmu in (fast, slow):
        mmu.create_process(1, 2)
    with pytest.raises(VmError, match="out of range"):
        fast.translate(5 * PAGE, False)
    with pytest.raises(VmError, match="out of range"):
        slow.access(5 * PAGE)
    assert full_state(fast) == full_state(slow)
    assert fast._clock == 0
