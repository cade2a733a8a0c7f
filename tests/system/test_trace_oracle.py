"""Tracing × JIT oracle: recording changes nothing, on any bus.

The E15 contract extended to the full system: run the same program
four ways — tracing on/off × JIT on/off — over each bus kind, and
every reported number (``RunReport.counters()``, exit statuses, cache
levels, TLB/VM stats) must be bit-identical. The traced JIT runs must
also actually *use* the JIT (compiled blocks execute with the recorder
enabled — tracing no longer forces the interpreter) and report the
same jit stats as the untraced runs.

The batched accounting transports (``replay_block`` of packed access
records → ``CacheHierarchy.simulate_arrays`` on the cached bus,
``MMU.replay`` and ``CacheHierarchy.replay`` on the virtual bus) get
the same treatment: a recorder attached to the bus must not perturb a
single counter.
"""

from dataclasses import asdict

import pytest

from repro.clib.address_space import (HEAP_BASE, TEXT_BASE, AddressSpace,
                                      encode_access)
from repro.obs import TraceRecorder, validate
from repro.obs.chrome import to_chrome
from repro.system.bus import CachedBus, FlatBus, VirtualBus
from repro.system.runner import program_from_source, run_system

LOOPY = """
int main() {
    int a[32];
    for (int i = 0; i < 32; i = i + 1) {
        a[i] = i * 3;
    }
    int total = 0;
    for (int pass = 0; pass < 6; pass = pass + 1) {
        for (int i = 0; i < 32; i = i + 1) {
            total = total + a[i];
        }
    }
    return total % 251;
}
"""


class TestFourWayOracle:
    """trace on/off × jit on/off: identical stats, JIT really on."""

    @pytest.mark.parametrize("bus", ["flat", "cached", "virtual"])
    def test_four_way(self, bus):
        program = program_from_source(LOOPY)
        kwargs = dict(bus=bus)
        if bus == "virtual":
            kwargs.update(procs=2, timeslice=1, batch=50)
        runs, recorders = {}, {}
        for jit in (False, True):
            for traced in (False, True):
                rec = TraceRecorder() if traced else None
                runs[jit, traced] = run_system(program, recorder=rec,
                                               jit=jit, **kwargs)
                recorders[jit, traced] = rec
        base = runs[False, False]
        for key, report in runs.items():
            assert report.counters() == base.counters(), key
            assert report.exit_statuses == base.exit_statuses, key
            assert report.cache_levels == base.cache_levels, key
            assert report.tlb == base.tlb and report.vm == base.vm, key
        # the traced runs actually recorded something
        assert len(recorders[False, True]) > 0
        assert len(recorders[True, True]) > 0
        # ...and the JIT really ran under the recorder, identically
        jit_traced = runs[True, True].jit
        assert jit_traced is not None
        assert jit_traced["blocks_compiled"] > 0
        assert jit_traced["entries"] > 0
        assert jit_traced == runs[True, False].jit

    def test_traced_jit_run_exports_a_valid_chrome_trace(self):
        rec = TraceRecorder()
        run_system(program_from_source(LOOPY), bus="virtual", procs=2,
                   timeslice=1, batch=50, recorder=rec, jit=True)
        trace = to_chrome(rec)
        validate(trace)
        assert any(e.get("ph") == "X" and e["name"].startswith("block ")
                   for e in trace["traceEvents"])


class TestReplayBlockTraced:
    """replay_block with a live recorder: counters unperturbed."""

    ACCESSES = ([("store", HEAP_BASE + i * 8, 4) for i in range(24)]
                + [("load", HEAP_BASE + i * 4, 4) for i in range(48)]
                + [("fetch", TEXT_BASE + (i % 16) * 4, 4) for i in range(32)])

    def fresh(self, kind, recorder):
        if kind == "flat":
            return FlatBus(AddressSpace.standard(), recorder=recorder)
        if kind == "cached":
            return CachedBus(AddressSpace.standard(), recorder=recorder)
        bus = VirtualBus(recorder=recorder)
        bus.create_process(1)
        return bus

    def drive(self, bus):
        records = [encode_access(*access) for access in self.ACCESSES]
        if isinstance(bus, VirtualBus):
            bus.replay_block_for(1, records)
            return
        for kind, addr, size in self.ACCESSES:
            if kind == "store":
                bus.space.write(addr, bytes(size))
        bus.replay_block(records)

    @pytest.mark.parametrize("kind", ["flat", "cached", "virtual"])
    def test_traced_batch_matches_untraced(self, kind):
        plain = self.fresh(kind, None)
        rec = TraceRecorder()
        traced = self.fresh(kind, rec)
        self.drive(plain)
        self.drive(traced)
        assert traced.stats.accesses == len(self.ACCESSES)
        assert vars(traced.stats) == vars(plain.stats)
        if kind in ("cached", "virtual"):
            for t, p in zip(traced.hierarchy.levels, plain.hierarchy.levels):
                assert vars(t.stats) == vars(p.stats)
        if kind == "virtual":
            assert (asdict(traced.mmu.tlb.stats)
                    == asdict(plain.mmu.tlb.stats))
            assert asdict(traced.mmu.stats) == asdict(plain.mmu.stats)
        # the batch path emitted counter samples, folded by default
        assert len(rec) > 0
        counters = [e for e in rec.events() if e.ph == "C"]
        assert counters, "expected folded counter samples from the batch"
