"""The virtual bus's whole state, pinned after every kernel slice.

``RunReport.counters()`` pins totals; this pins the *state* the totals
come from, at every slice boundary: TLB contents in recency order, the
MMU clock, every frame's owner and timestamps, every page-table entry,
every cache line, and the bus's traffic and (sorted) cycle breakdown.
Any change to how the bus accounts a slice (scalar, batched, deferred)
must leave this one digest as it is, over example programs and a
page-striding program × JIT on/off × 1 and 3 processes × two slice
shapes, with 16 frames so that evictions and write-backs happen.

Every slice of every run also checks the conservation laws between the
layers: each translation is one TLB probe and one L1 probe, each level
below L1 sees exactly the misses of the level above, no access makes
fewer than one translation, and each cycle bucket is its count times
its cost (the ``cache`` bucket each level's hits times the hit times
down to it, the ``memory`` bucket the full misses times every hit time
plus the memory time).
"""

import hashlib
from dataclasses import astuple
from itertools import accumulate
from pathlib import Path

from repro.clib.address_space import HEAP_BASE
from repro.errors import OsError_
from repro.isa.machine import Machine
from repro.ossim.kernel import Kernel
from repro.system.bus import make_bus
from repro.system.runner import program_from_source

EXAMPLES = Path(__file__).parents[2] / "examples" / "c"

#: one store and load per heap page per sweep: 3 processes x 12 heap
#: pages do not fit in 16 frames, so frames are evicted and written back
PAGE_STRIDE = f"""
int main() {{
    int base = {HEAP_BASE + 40};
    int s = 0;
    for (int r = 0; r < 3; r = r + 1) {{
        for (int k = 0; k < 12; k = k + 1) {{
            int p = base + k * 4096;
            *p = *p + k + r;
            s = s + *p;
        }}
    }}
    return s % 256;
}}
"""

SOURCES = {name: (EXAMPLES / name).read_text()
           for name in ("sum.c", "search.c", "stride_copy.c",
                        "insertion_sort.c")}
SOURCES["page_stride"] = PAGE_STRIDE

#: (batch, timeslice) shapes: long slices, and short odd ones that cut
#: blocks and loops at every phase
SHAPES = ((100, 2), (7, 1))

#: kernel units per process; the long examples are cut off mid-run
UNITS = {(100, 2): 40, (7, 1): 150}

DIGEST = "9d44f32b155e5f253b0662b2ad1c892f70f3565a6a825c497c3ae9e49ebac202"


def bus_state(bus) -> str:
    """Everything the bus's accounting leaves behind, as one string."""
    mmu = bus.mmu
    physical = mmu.physical
    stats = bus.stats
    return repr((
        list(mmu.tlb._entries.items()), mmu._clock, astuple(mmu.stats),
        astuple(mmu.tlb.stats),
        sorted((frame, info.pid, info.vpn, info.loaded_at, info.last_used)
               for frame, info in physical.frames.items()),
        list(physical._free),
        [(pid, [(e.valid, e.frame, e.dirty, e.referenced, e.in_swap)
                for e in table.entries])
         for pid, table in sorted(mmu.page_tables.items())],
        [(cache._clock, astuple(cache.stats),
          [(line.valid, line.tag, line.dirty, line.last_used,
            line.loaded_at) for ways in cache.sets for line in ways])
         for cache in bus.hierarchy.levels],
        bus.hierarchy.memory_accesses,
        (stats.loads, stats.stores, stats.fetches, stats.cycles,
         sorted(stats.breakdown.items())),
    ))


def check_conservation(bus) -> None:
    """The cross-layer laws every slice boundary must satisfy."""
    mmu = bus.mmu
    tlb = mmu.tlb.stats
    levels = [cache.stats for cache in bus.hierarchy.levels]
    cost = bus.cost
    breakdown = bus.stats.breakdown
    assert tlb.hits + tlb.misses == mmu.stats.accesses == levels[0].accesses
    for upper, lower in zip(levels, levels[1:]):
        assert lower.accesses == upper.misses
    assert bus.hierarchy.memory_accesses == levels[-1].misses
    assert breakdown.get("tlb", 0.0) == tlb.hits * cost.tlb_time
    assert breakdown.get("walk", 0.0) == tlb.misses * (cost.tlb_time
                                                       + cost.memory_time)
    assert breakdown.get("fault", 0.0) == (mmu.stats.page_faults
                                           * cost.fault_service_time)
    assert bus.stats.cycles == sum(breakdown.values())
    # a page-crossing access translates twice but counts once
    assert bus.stats.accesses <= mmu.stats.accesses
    # a hit at a level costs the hit times down to it; a full miss costs
    # every level's hit time plus the memory time
    cum = list(accumulate(cache.config.hit_time
                          for cache in bus.hierarchy.levels))
    assert breakdown.get("cache", 0.0) == sum(
        level.hits * through for level, through in zip(levels, cum))
    assert breakdown.get("memory", 0.0) == (
        bus.hierarchy.memory_accesses * (cum[-1] + cost.memory_time))


def run_pinned(source: str, *, jit: bool, procs: int, batch: int,
               timeslice: int, digest, monkeypatch):
    """Run ``procs`` copies under a kernel, feeding the bus state after
    every slice to ``digest``; returns the bus."""
    program = program_from_source(source)
    bus = make_bus("virtual", num_frames=16)
    run_slice = Machine.run_slice

    def pinned_slice(self, limit, *, jit=None):
        try:
            return run_slice(self, limit, jit=jit)
        finally:
            check_conservation(bus)
            digest.update(bus_state(bus).encode())

    with monkeypatch.context() as m:
        m.setattr(Machine, "run_slice", pinned_slice)
        kernel = Kernel(timeslice=timeslice)
        for i in range(procs):
            kernel.exec_binary(f"main#{i}", program, bus=bus, batch=batch,
                               jit=jit)
        try:
            kernel.run(max_units=UNITS[batch, timeslice] * procs)
        except OsError_:
            pass                       # cut off at a unit boundary
    return bus


def test_state_after_every_slice_is_pinned(monkeypatch):
    digest = hashlib.sha256()
    evictions = writebacks = 0
    for name, source in sorted(SOURCES.items()):
        for jit in (False, True):
            for procs in (1, 3):
                for batch, timeslice in SHAPES:
                    bus = run_pinned(source, jit=jit, procs=procs,
                                     batch=batch, timeslice=timeslice,
                                     digest=digest,
                                     monkeypatch=monkeypatch)
                    evictions += bus.mmu.stats.evictions
                    writebacks += bus.mmu.stats.writebacks
    assert evictions and writebacks
    assert digest.hexdigest() == DIGEST
