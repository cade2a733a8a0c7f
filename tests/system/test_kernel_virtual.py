"""Integration: compiled binaries as timeshared processes on a VirtualBus.

The acceptance scenario: two processes run two different compiled
programs over one shared bus. Context switches must flush the untagged
TLB, each pid's bytes stay private (same virtual addresses, different
values), and the numbers in the run report must agree with the counter
events the obs layer recorded during the same run.
"""

import pytest

from repro.errors import OsError_, ReproError
from repro.isa.assembler import assemble
from repro.isa.ccompiler import compile_c
from repro.obs.recorder import TraceRecorder
from repro.ossim.kernel import Kernel
from repro.system.bus import VirtualBus
from repro.system.runner import run_system

# same shape, different constants: both walk the same virtual stack
# addresses, so identical exit statuses would mean leaked bytes
PROG_A = """
int main() {
    int total = 0;
    for (int i = 1; i <= 6; i = i + 1) {
        total = total + i;
    }
    return total;
}
"""

PROG_B = """
int main() {
    int total = 0;
    for (int i = 1; i <= 6; i = i + 1) {
        total = total + i * i;
    }
    return total;
}
"""


@pytest.fixture(scope="module")
def programs():
    return (assemble(compile_c(PROG_A), entry="main"),
            assemble(compile_c(PROG_B), entry="main"))


def run_two_processes(programs, recorder=None):
    bus = VirtualBus(recorder=recorder)
    kernel = Kernel(timeslice=1, recorder=recorder)
    pid_a = kernel.exec_binary("a", programs[0], bus=bus, batch=20,
                               recorder=recorder)
    pid_b = kernel.exec_binary("b", programs[1], bus=bus, batch=20,
                               recorder=recorder)
    kernel.run()
    return bus, kernel, pid_a, pid_b


class TestTwoProcesses:
    def test_isolation_and_tlb_flushes(self, programs):
        bus, kernel, pid_a, pid_b = run_two_processes(programs)
        # per-pid isolation: same program shape + virtual addresses,
        # private bytes -> each process computes its own answer
        assert kernel.exit_status_of(pid_a) == 21
        assert kernel.exit_status_of(pid_b) == 91
        # the batched interleave really context-switched and flushed
        assert kernel.stats.context_switches >= 1
        assert bus.mmu.stats.context_switches >= 1
        assert bus.mmu.tlb.stats.flushes > 0
        # exit released every frame back to the bus
        assert bus.pids() == []
        assert bus.mmu.physical.free_count == bus.mmu.physical.num_frames

    def test_crash_is_contained(self, programs):
        crasher = assemble("main:\n"
                           "  movl $0x08048000, %eax\n"
                           "  movl $1, (%eax)\n"       # store into text
                           "  ret\n", entry="main")
        bus = VirtualBus()
        kernel = Kernel(timeslice=1)
        bad = kernel.exec_binary("bad", crasher, bus=bus, batch=20)
        good = kernel.exec_binary("good", programs[0], bus=bus, batch=20)
        kernel.run()
        assert kernel.process(bad).fault is not None
        assert "not writable" in kernel.process(bad).fault
        assert kernel.exit_status_of(bad) == 128 + 9       # SIGKILL style
        assert kernel.exit_status_of(good) == 21           # unharmed
        assert bus.pids() == []                            # both cleaned up


class TestBatchGuard:
    def test_exec_binary_rejects_batch_below_one(self, programs):
        bus = VirtualBus()
        kernel = Kernel()
        with pytest.raises(OsError_, match="batch"):
            kernel.exec_binary("a", programs[0], bus=bus, batch=0)
        assert bus.pids() == []            # nothing half-loaded

    def test_run_system_batch_zero_is_a_repro_error(self, programs):
        # max_steps // batch would otherwise divide by zero
        with pytest.raises(ReproError):
            run_system(programs[0], bus="virtual", batch=0)


class TestReportMatchesObs:
    def test_counters_agree_with_trace_events(self, programs):
        recorder = TraceRecorder()
        report = run_system(programs[1], bus="virtual", procs=2,
                            timeslice=1, batch=20, recorder=recorder)
        assert set(report.exit_statuses.values()) == {91}
        assert report.tlb["flushes"] > 0
        assert report.kernel["context_switches"] >= 1

        def last_counter(name):
            return [e for e in recorder.events()
                    if e.ph == "C" and e.name == name][-1].args

        tlb = last_counter("tlb")
        assert tlb["hits"] == report.tlb["hits"]
        assert tlb["misses"] == report.tlb["misses"]
        assert tlb["flushes"] == report.tlb["flushes"]
        vm = last_counter("vm")
        assert vm["accesses"] == report.vm["accesses"]
        assert vm["page_faults"] == report.vm["page_faults"]
        assert vm["evictions"] == report.vm["evictions"]

    def test_cycles_match_breakdown(self, programs):
        report = run_system(programs[0], bus="virtual", timeslice=1,
                            batch=20)
        breakdown = {k.removeprefix("bus_cycles_"): v
                     for k, v in report.counters().items()
                     if k.startswith("bus_cycles_")}
        assert sum(breakdown.values()) == pytest.approx(
            report.counters()["bus_cycles"])
        assert report.cpi > 1.0
