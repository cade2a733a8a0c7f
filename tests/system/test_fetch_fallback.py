"""Instruction fetches without the byte path, and where they keep it.

On a virtual bus whose accounting is deferred, an interpreted run
whose program lies wholly in executable regions of an untraced space
accounts each recorded fetch without copying its bytes. Everywhere else
the checked fetch runs as before. These tests pin both sides against
the ``Machine.step()`` reference: a program with an instruction in a
non-executable region faults with the same message, at the same step
and with the same bus state, and a space that keeps an access trace
records the same trace.
"""

import pytest

from repro.clib.address_space import (DATA_BASE, STACK_TOP, TEXT_BASE,
                                      AddressSpace, MemoryRegion)
from repro.errors import SegmentationFault
from repro.isa.assembler import assemble
from repro.isa.machine import Machine
from repro.ossim.kernel import Kernel
from repro.system.bus import VirtualBus, make_bus
from repro.system.runner import program_from_source

from .test_slice_oracle import stepped_slice
from .test_trace_oracle import LOOPY
from .test_virtual_slice_state import bus_state, check_conservation

PAGE = 4096

#: loops, then jumps past the first page of code, into a region that is
#: mapped but not executable
DEAD_TEXT = ("""
main:
    movl $0, %ecx
top:
    pushl %ecx
    popl %edx
    addl $1, %ecx
    cmpl $40, %ecx
    jl top
    jmp far
""" + "    nop\n" * 1100 + """
far:
    movl $1, %eax
    ret
""")


def dead_text_space() -> AddressSpace:
    """One executable page of text, then a read-only page that is not."""
    space = AddressSpace()
    space.map_region(MemoryRegion("text", TEXT_BASE, PAGE, writable=False,
                                  executable=True))
    space.map_region(MemoryRegion("rodata", TEXT_BASE + PAGE, PAGE,
                                  writable=False))
    space.map_region(MemoryRegion("data", DATA_BASE, 4 * PAGE))
    space.map_region(MemoryRegion("stack", STACK_TOP - 4 * PAGE, 4 * PAGE))
    return space


def run_dead_text(*, jit: bool, stepped: bool):
    program = assemble(DEAD_TEXT, entry="main")
    assert max(program.by_address) >= TEXT_BASE + PAGE
    bus = VirtualBus(num_frames=16)
    bus.create_process(3, dead_text_space())
    machine = Machine(program, bus=bus, pid=3, record_fetches=True, jit=jit)
    with pytest.raises(SegmentationFault) as fault:
        if stepped:
            while True:
                machine.step()
        else:
            machine.run()
    check_conservation(bus)
    return str(fault.value), machine.steps, bus_state(bus)


@pytest.mark.parametrize("jit", [False, True])
def test_fetch_from_a_non_executable_region_matches_step(jit):
    fast = run_dead_text(jit=jit, stepped=False)
    assert "rodata is not executable" in fast[0]
    assert fast == run_dead_text(jit=jit, stepped=True)


def traced_kernel_run(*, jit: bool):
    """Two processes on a bus whose spaces keep an access trace; returns
    each process's trace and the bus state."""
    bus = make_bus("virtual", trace=True, num_frames=16)
    kernel = Kernel(timeslice=1)
    program = program_from_source(LOOPY)
    pids = [kernel.exec_binary(f"main#{i}", program, bus=bus, batch=50,
                               jit=jit) for i in range(2)]
    spaces = {pid: kernel.machines[pid].space.space for pid in pids}
    kernel.run()
    check_conservation(bus)
    return ({pid: list(space.trace) for pid, space in spaces.items()},
            bus_state(bus))


@pytest.mark.parametrize("jit", [False, True])
def test_space_trace_of_a_kernel_run_matches_step(monkeypatch, jit):
    fast = traced_kernel_run(jit=jit)
    assert all(any(a.kind == "fetch" for a in trace)
               for trace in fast[0].values())
    with monkeypatch.context() as m:
        m.setattr(Machine, "run_slice", stepped_slice)
        assert fast == traced_kernel_run(jit=jit)


@pytest.mark.parametrize("jit", [False, True])
def test_checked_programs_fetch_without_the_byte_path(monkeypatch, jit):
    """Untraced and wholly executable: no fetch reaches the space."""
    fetches = []
    fetch = AddressSpace.fetch

    def counted(self, address, size):
        fetches.append(address)
        return fetch(self, address, size)

    monkeypatch.setattr(AddressSpace, "fetch", counted)
    bus = make_bus("virtual")
    kernel = Kernel(timeslice=1)
    kernel.exec_binary("main", program_from_source(LOOPY), bus=bus,
                       batch=50, jit=jit)
    kernel.run()
    assert bus.stats.fetches > 0 and fetches == []
