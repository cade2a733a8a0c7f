"""Deferred virtual-bus accounting at its edges, against ``step()``.

Untraced interpreted slices and JIT runs on a virtual bus move bytes at
once and account their accesses later, in batches. ``Machine.step()``
accounts each access as it happens, so it is the reference: a slice
that faults part-way must have accounted every access before the fault
and none after it, and a long kernel-less run, whose batches are cut at
the JIT's ``FLUSH_LIMIT``, must end in the reference's state.
"""

import pytest

from repro.isa.assembler import assemble
from repro.isa.jit import FLUSH_LIMIT
from repro.isa.machine import Machine
from repro.ossim.kernel import Kernel
from repro.system.bus import VirtualBus
from repro.system.runner import program_from_source

from .test_slice_oracle import CRASHER, stepped_slice
from .test_virtual_slice_state import bus_state, check_conservation

#: loops 40 times, then stores below every mapped region
STRAY = """
main:
    movl $0, %ecx
top:
    pushl %ecx
    popl %edx
    addl $1, %ecx
    cmpl $40, %ecx
    jl top
    movl $16, %eax
    movl %ecx, (%eax)
    ret
"""

#: more than FLUSH_LIMIT accesses when instruction fetches are recorded
LONG = """
int main() {
    int a[16];
    int s = 0;
    for (int i = 0; i < 3000; i = i + 1) {
        a[i % 16] = i;
        s = s + a[(i + 3) % 16];
    }
    return s % 256;
}
"""


def run_faulting(program, *, procs: int, jit: bool):
    """Run ``procs`` copies to their crash; returns the bus state and
    the kernel's crash reports."""
    bus = VirtualBus(num_frames=16)
    kernel = Kernel(timeslice=2)
    pids = [kernel.exec_binary(f"main#{i}", program, bus=bus, jit=jit)
            for i in range(procs)]
    kernel.run()
    check_conservation(bus)
    return bus_state(bus), [kernel.process(pid).fault for pid in pids]


@pytest.mark.parametrize("jit", [False, True])
@pytest.mark.parametrize("procs", [1, 2])
@pytest.mark.parametrize("source", [CRASHER, STRAY], ids=["text", "stray"])
def test_faulting_slice_matches_step(monkeypatch, source, procs, jit):
    program = assemble(source, entry="main")
    fast = run_faulting(program, procs=procs, jit=jit)
    with monkeypatch.context() as m:
        m.setattr(Machine, "run_slice", stepped_slice)
        reference = run_faulting(program, procs=procs, jit=jit)
    assert fast == reference
    assert all("segmentation fault" in fault for fault in fast[1])


def run_long(*, jit: bool, stepped: bool):
    bus = VirtualBus(num_frames=16)
    bus.create_process(5)
    machine = Machine(program_from_source(LONG), bus=bus, pid=5,
                      record_fetches=True, jit=jit)
    if stepped:
        while not machine.halted:
            machine.step()
    else:
        machine.run()
    check_conservation(bus)
    return bus_state(bus), machine.regs.get_signed("eax"), machine.steps


@pytest.mark.parametrize("jit", [False, True])
def test_long_run_flushes_at_the_limit(monkeypatch, jit):
    batches = []
    replay = VirtualBus.replay_block_for

    def counted(self, pid, accesses):
        batches.append(len(accesses))
        return replay(self, pid, accesses)

    with monkeypatch.context() as m:
        m.setattr(VirtualBus, "replay_block_for", counted)
        fast = run_long(jit=jit, stepped=False)
    assert sum(batches) > FLUSH_LIMIT
    # cut at the limit, overshooting by at most one block or instruction
    assert len(batches) >= 2 and max(batches) < FLUSH_LIMIT + 256
    assert fast == run_long(jit=jit, stepped=True)
