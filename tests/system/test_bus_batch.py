"""Block-batched bus accounting (``replay_block``) vs scalar accounting.

The JIT defers a compiled block's accesses, one packed int record each
(``encode_access``), and hands them to the bus in one ``replay_block``
call: the cached bus runs them through
``CacheHierarchy.simulate_arrays``, the virtual bus through its one
batch engine (``MMU.replay``, then ``CacheHierarchy.replay``). The
contract: batching is an *accounting transport*, never a semantic
change — every counter, cycle bucket, cache/TLB/VM statistic, and exit
status matches the scalar per-access path exactly.
"""

from dataclasses import asdict

import pytest

from repro.clib.address_space import (HEAP_BASE, TEXT_BASE, AddressSpace,
                                      encode_access)
from repro.system.bus import CachedBus, FlatBus, VirtualBus
from repro.system.runner import program_from_source, run_system

LOOPY = """
int main() {
    int a[64];
    for (int i = 0; i < 64; i = i + 1) {
        a[i] = i * 5;
    }
    int total = 0;
    for (int pass = 0; pass < 6; pass = pass + 1) {
        for (int i = 0; i < 64; i = i + 1) {
            total = total + a[i];
        }
    }
    return total % 199;
}
"""


class TestReplayBlockUnits:
    """replay_block(accesses) == the same accesses issued one at a time."""

    ACCESSES = ([("store", HEAP_BASE + i * 8, 4) for i in range(32)]
                + [("load", HEAP_BASE + i * 4, 4) for i in range(64)]
                + [("fetch", TEXT_BASE + (i % 16) * 4, 4) for i in range(48)])

    def scalar_drive(self, bus):
        view = bus.view(1) if isinstance(bus, VirtualBus) else bus
        for kind, addr, size in self.ACCESSES:
            if kind == "store":
                view.write(addr, bytes(size))
            elif kind == "load":
                view.read(addr, size)
            else:
                view.fetch(addr, size)

    def batch_drive(self, bus):
        records = [encode_access(*access) for access in self.ACCESSES]
        if isinstance(bus, VirtualBus):
            bus.replay_block_for(1, records)
        else:
            # move the bytes through the backing space first, the way
            # the JIT does, so only the accounting goes through replay
            for kind, addr, size in self.ACCESSES:
                if kind == "store":
                    bus.space.write(addr, bytes(size))
            bus.replay_block(records)

    def fresh(self, kind):
        if kind == "flat":
            return FlatBus(AddressSpace.standard())
        if kind == "cached":
            return CachedBus(AddressSpace.standard())
        bus = VirtualBus()
        bus.create_process(1)
        return bus

    @pytest.mark.parametrize("kind", ["flat", "cached", "virtual"])
    def test_batch_matches_scalar(self, kind):
        scalar, batch = self.fresh(kind), self.fresh(kind)
        self.scalar_drive(scalar)
        self.batch_drive(batch)
        assert batch.stats.accesses == len(self.ACCESSES)
        assert vars(batch.stats) == vars(scalar.stats)
        if kind in ("cached", "virtual"):
            for b, s in zip(batch.hierarchy.levels, scalar.hierarchy.levels):
                assert vars(b.stats) == vars(s.stats)
        if kind == "virtual":
            assert (asdict(batch.mmu.tlb.stats)
                    == asdict(scalar.mmu.tlb.stats))
            assert asdict(batch.mmu.stats) == asdict(scalar.mmu.stats)

    def test_empty_block_is_free(self):
        for kind in ("flat", "cached"):
            bus = self.fresh(kind)
            bus.replay_block([])
            assert bus.stats.accesses == 0 and bus.stats.cycles == 0.0
        bus = self.fresh("virtual")
        bus.replay_block_for(1, [])
        assert bus.stats.accesses == 0 and bus.stats.cycles == 0.0


class TestEndToEndCounters:
    """run_system with jit on/off: identical RunReport.counters()."""

    @pytest.mark.parametrize("bus", ["flat", "cached"])
    def test_direct_buses(self, bus):
        program = program_from_source(LOOPY)
        nojit = run_system(program, bus=bus, jit=False)
        jit = run_system(program, bus=bus, jit=True)
        assert jit.exit_statuses == nojit.exit_statuses
        assert jit.counters() == nojit.counters()
        assert nojit.jit is None
        assert jit.jit is not None and jit.jit["blocks_compiled"] > 0
        assert jit.jit["jit_steps"] > 0

    @pytest.mark.parametrize("procs", [1, 2])
    def test_virtual_bus_timeshared(self, procs):
        program = program_from_source(LOOPY)
        kwargs = dict(bus="virtual", procs=procs, timeslice=1, batch=50)
        nojit = run_system(program, jit=False, **kwargs)
        jit = run_system(program, jit=True, **kwargs)
        assert jit.exit_statuses == nojit.exit_statuses
        assert jit.counters() == nojit.counters()
        assert jit.tlb == nojit.tlb
        assert jit.vm == nojit.vm
        assert jit.jit is not None and jit.jit["jit_steps"] > 0

    def test_jit_stats_render(self):
        report = run_system(program_from_source(LOOPY), bus="flat", jit=True)
        assert "blocks compiled" in report.render()
        assert "side exits" in report.render()
