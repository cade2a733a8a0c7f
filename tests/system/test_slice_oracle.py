"""Interpreted kernel slices vs the ``Machine.step`` oracle.

An interpreted timeslice (``Machine.run_slice(limit, jit=False)``)
runs the predecoded handler loop. This oracle re-runs the same
virtual-bus system with every slice executed one ``Machine.step()`` at
a time — the ``if/elif`` interpreter — and requires identical counters,
exit statuses, step counts and crash reports for every example program
at 1 to 4 processes.
"""

from dataclasses import asdict
from pathlib import Path

import pytest

from repro.errors import OsError_
from repro.isa.assembler import assemble
from repro.isa.machine import Machine
from repro.ossim.kernel import Kernel
from repro.system.bus import make_bus
from repro.system.runner import program_from_source, run_system

EXAMPLES = sorted((Path(__file__).parents[2] / "examples" / "c").glob("*.c"))

#: kernel units (100-instruction slices) per process: the short
#: examples run to completion, the long ones are cut off mid-run
UNITS = 40

#: loops 150 times, then stores into the text segment: a segfault in
#: the middle of a 100-instruction slice
CRASHER = """
main:
    movl $0, %ecx
top:
    addl $1, %ecx
    cmpl $150, %ecx
    jl top
    movl $0x08048000, %eax
    movl %ecx, (%eax)
    ret
"""


def stepped_slice(self, limit, *, jit=None):
    """The oracle slice: one ``step()`` per instruction."""
    before = self.steps
    while not self.halted and self.steps - before < limit:
        self.step()
    return self.steps - before


def run_kernel(program, procs):
    """``run_system(bus="virtual", jit=False)``'s process setup, driven
    for at most :data:`UNITS` slices per process; returns everything
    the two slice paths must agree on."""
    bus = make_bus("virtual")
    kernel = Kernel(timeslice=2)
    pids = [kernel.exec_binary(f"main#{i}", program, bus=bus, jit=False)
            for i in range(procs)]
    try:
        kernel.run(max_units=UNITS * procs)
    except OsError_:
        pass                       # cut off at a unit boundary
    processes = {pid: (kernel.machines[pid].steps,
                       kernel.exit_status_of(pid),
                       kernel.process(pid).fault) for pid in pids}
    return (processes, bus.stats.counters(), asdict(bus.mmu.stats),
            asdict(bus.mmu.tlb.stats), kernel.stats.total_units,
            kernel.stats.context_switches,
            [vars(level.stats) for level in bus.hierarchy.levels])


def with_stepped_slices(monkeypatch, fn, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(Machine, "run_slice", stepped_slice)
        return fn(*args, **kwargs)


@pytest.mark.parametrize("procs", [1, 2, 3, 4])
@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_examples_match_step_oracle(monkeypatch, path, procs):
    program = program_from_source(path.read_text())
    fast = run_kernel(program, procs)
    assert fast == with_stepped_slices(monkeypatch, run_kernel, program,
                                       procs)
    assert all(steps > 0 for steps, _, _ in fast[0].values())


@pytest.mark.parametrize("procs", [1, 2])
def test_mid_slice_segfault_matches_step_oracle(monkeypatch, procs):
    program = assemble(CRASHER, entry="main")
    kwargs = dict(bus="virtual", jit=False, procs=procs)
    fast = run_system(program, **kwargs)
    oracle = with_stepped_slices(monkeypatch, run_system, program, **kwargs)
    assert fast.counters() == oracle.counters()
    assert fast.exit_statuses == oracle.exit_statuses
    assert fast.faults == oracle.faults
    # each process dies 1 + 3 * 150 + 1 instructions in, at the store
    assert fast.instructions == oracle.instructions == procs * 452
    assert len(fast.faults) == procs
    assert all("segmentation fault" in msg.lower()
               for msg in fast.faults.values()), fast.faults
