"""``MMU.replay`` must agree exactly with a loop over ``translate``.

The replay collapses accesses to pages hit or filled since the batch's
last TLB miss into a dict lookup and applies their effects (clock,
counts, TLB recency, frame timestamps, dirty bits) before the next
scalar step, so the whole MMU state has to match the access-by-access
walk: after every batch, whatever the batch boundaries, and at a
protection fault part-way through a batch.
"""

import random

import pytest

from repro.errors import ProtectionFault
from repro.obs import TraceRecorder
from repro.vm import MMU, PhysicalMemory


def make_mmu(replacement, tagged, recorder=None):
    mmu = MMU(PhysicalMemory(5, 256), page_size=256, tlb_entries=4,
              tagged_tlb=tagged, replacement=replacement, recorder=recorder)
    for pid in (1, 2):
        mmu.create_process(pid, 12)
    return mmu


def full_state(mmu):
    return (mmu.stats, mmu.tlb.stats, list(mmu.tlb._entries.items()),
            mmu._clock, mmu.current_pid,
            {pid: [(e.valid, e.frame, e.dirty, e.referenced, e.in_swap)
                   for e in t.entries]
             for pid, t in mmu.page_tables.items()},
            sorted((f, i.pid, i.vpn, i.loaded_at, i.last_used)
                   for f, i in mmu.physical.frames.items()))


def make_batches(seed):
    """Page-local runs over more pages than frames or TLB entries, cut
    into batches of random size, each for one of two processes."""
    rng = random.Random(seed)
    batches = []
    for _ in range(40):
        pid = rng.choice((1, 2))
        vaddrs, writes = [], []
        for _ in range(rng.randrange(0, 30)):
            page = rng.randrange(8 if rng.random() < 0.8 else 12)
            vaddrs.append(page * 256 + rng.randrange(256))
            writes.append(rng.random() < 0.3)
        batches.append((pid, vaddrs, writes))
    return batches


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tagged", [False, True])
@pytest.mark.parametrize("replacement", ["lru", "fifo"])
def test_matches_translate_loop(seed, replacement, tagged):
    walk, replay = (make_mmu(replacement, tagged) for _ in range(2))
    for pid, vaddrs, writes in make_batches(seed):
        walk.context_switch(pid)
        expected = [walk.translate(v, w)[0] for v, w in zip(vaddrs, writes)]
        replay.context_switch(pid)
        paddrs = []
        replay.replay(vaddrs, writes, paddrs)
        assert paddrs == expected
        assert full_state(replay) == full_state(walk)
    assert walk.stats.evictions and walk.stats.writebacks


def test_protection_fault_lands_where_the_walk_raises():
    walk, replay = (make_mmu("lru", False) for _ in range(2))
    vaddrs = [0, 4, 300, 8, 304, 12, 16, 308]
    writes = [False, True, False, False, True, True, False, True]
    for mmu in (walk, replay):
        mmu.translate(0)
        mmu.page_tables[1].entry(0).writable = False
    with pytest.raises(ProtectionFault):
        for v, w in zip(vaddrs, writes):
            walk.translate(v, w)
    paddrs = []
    with pytest.raises(ProtectionFault):
        replay.replay(vaddrs, writes, paddrs)
    assert len(paddrs) == 1                 # the fault is the second access
    assert full_state(replay) == full_state(walk)


def test_traced_replay_collapses_same_page_runs():
    """With a recorder, only a run on the page last translated collapses:
    each run head records what ``translate`` records, the rest of the run
    one TLB sample, and the batch ends with one "vm" sample."""
    walk = make_mmu("lru", False, TraceRecorder(policies={"*": "all"}))
    replay = make_mmu("lru", False, TraceRecorder(policies={"*": "all"}))
    vaddrs = [0, 4, 8, 300, 12, 304, 16]
    writes = [False] * len(vaddrs)
    for v, w in zip(vaddrs, writes):
        walk.translate(v, w)
    replay.replay(vaddrs, writes, [])
    assert full_state(replay) == full_state(walk)
    tlb = ("hits", "misses", "flushes")
    vm = ("accesses", "page_faults", "evictions", "writebacks")

    def fault(vpn):
        return {"pid": 1, "vpn": vpn, "evicted": None, "wrote_back": False}

    assert [(e.name, e.ts, e.args) for e in replay.recorder.events()] == [
        ("tlb", 1, dict(zip(tlb, (0, 1, 0)))),
        ("page-fault", 1, fault(0)),
        ("vm", 1, dict(zip(vm, (1, 1, 0, 0)))),
        ("tlb", 2, dict(zip(tlb, (2, 1, 0)))),      # 4 and 8 collapse
        ("tlb", 3, dict(zip(tlb, (2, 2, 0)))),
        ("page-fault", 4, fault(1)),
        ("vm", 4, dict(zip(vm, (4, 2, 0, 0)))),
        ("tlb", 4, dict(zip(tlb, (3, 2, 0)))),
        ("vm", 5, dict(zip(vm, (5, 2, 0, 0)))),
        ("tlb", 5, dict(zip(tlb, (4, 2, 0)))),
        ("vm", 6, dict(zip(vm, (6, 2, 0, 0)))),
        ("tlb", 6, dict(zip(tlb, (5, 2, 0)))),
        ("vm", 7, dict(zip(vm, (7, 2, 0, 0)))),
        ("vm", 7, dict(zip(vm, (7, 2, 0, 0)))),    # the batch's sample
    ]
