"""Superblocks compile once per Program and bind once per machine.

Two processes running one :class:`Program` share its compiled
superblocks (``program.jit_blocks``): each distinct block goes through
``compile`` once, while every machine still execs the shared code into
its own namespace, binds its own registers and memory, and keeps its
own :class:`JitStats`. The tests count the ``compile`` calls made from
:mod:`repro.isa.jit` and compare shared runs against runs in which
every process has a private copy of the program.
"""

from collections import Counter

import pytest

from repro.analysis.opt import optimize_program
from repro.clib.address_space import AddressSpace
from repro.isa import jit as jitmod
from repro.isa.machine import Machine
from repro.ossim.kernel import Kernel
from repro.system.bus import CachedBus, FlatBus, VirtualBus
from repro.system.runner import program_from_source

SOURCE = """
int n = 5;
int main() {
    int a[16];
    for (int i = 0; i < 16; i = i + 1) {
        a[i] = i * n;
    }
    int total = 0;
    for (int pass = 0; pass < n; pass = pass + 1) {
        for (int i = 0; i < 16; i = i + 1) {
            total = total + a[i];
        }
    }
    return total % 211;
}
"""


@pytest.fixture
def compiles(monkeypatch):
    """The filenames passed to every ``compile`` call in repro.isa.jit."""
    seen: list[str] = []

    def counting(source, filename, mode, *args, **kwargs):
        seen.append(filename)
        return compile(source, filename, mode, *args, **kwargs)

    monkeypatch.setattr(jitmod, "compile", counting, raising=False)
    return seen


def run_processes(programs, *, pokes=None):
    """Run each program as a JIT process on one VirtualBus.

    ``pokes`` optionally gives, per process, a value written into the
    global ``n`` of that process's own memory before it starts.
    Returns the kernel and the pids in spawn order.
    """
    bus = VirtualBus()
    kernel = Kernel(timeslice=1)
    pids = []
    for i, program in enumerate(programs):
        pid = kernel.exec_binary(f"p{i}", program, bus=bus, batch=37,
                                 jit=True)
        if pokes is not None:
            bus.space_of(pid).write(program.labels["n"],
                                    pokes[i].to_bytes(4, "little"))
        pids.append(pid)
    kernel.run()
    return kernel, pids


def final_state(kernel, pid):
    machine = kernel.machines[pid]
    return (machine.regs.snapshot(), str(machine.regs.flags),
            machine.steps, kernel.exit_status_of(pid))


class TestSharedCompilation:
    def test_each_superblock_compiles_once(self, compiles):
        program = program_from_source(SOURCE)
        kernel, pids = run_processes([program, program])
        assert compiles, "the JIT compiled nothing"
        assert max(Counter(compiles).values()) == 1
        formed = [b for b in program.jit_blocks.values() if b is not None]
        assert len(compiles) == len(formed)
        # ...while each machine still installed every block it entered
        installed = [kernel.machines[pid].jit_stats.blocks_compiled
                     for pid in pids]
        assert installed == [len(compiles), len(compiles)]

    def test_stats_match_private_program_copies(self):
        shared = program_from_source(SOURCE)
        kernel_s, pids_s = run_processes([shared, shared])
        kernel_p, pids_p = run_processes([program_from_source(SOURCE),
                                          program_from_source(SOURCE)])
        for ps, pp in zip(pids_s, pids_p):
            assert (kernel_s.machines[ps].jit_stats
                    == kernel_p.machines[pp].jit_stats)
            assert final_state(kernel_s, ps) == final_state(kernel_p, pp)

    def test_different_data_same_registers_as_alone(self):
        program = program_from_source(SOURCE)
        together, pids = run_processes([program, program], pokes=[3, 9])
        for pid, n in zip(pids, [3, 9]):
            alone, (solo,) = run_processes([program_from_source(SOURCE)],
                                           pokes=[n])
            assert final_state(together, pid) == final_state(alone, solo)
        assert (together.exit_status_of(pids[0])
                != together.exit_status_of(pids[1]))

    def test_distinct_programs_share_nothing(self, compiles):
        first = program_from_source(SOURCE)
        second = program_from_source(SOURCE)
        run_processes([first, second])
        assert first.asm_cfg is not None
        assert first.asm_cfg is not second.asm_cfg
        assert first.jit_blocks is not second.jit_blocks
        codes = [{id(b.code) for b in p.jit_blocks.values() if b is not None}
                 for p in (first, second)]
        assert codes[0] and codes[1] and not codes[0] & codes[1]
        # each program compiled its own copy of every block
        assert len(compiles) == len(codes[0]) + len(codes[1])
        assert max(Counter(compiles).values()) == 2

    def test_invalidate_predecode_drops_blocks(self):
        program = program_from_source(SOURCE)
        run_processes([program])
        assert program.jit_blocks and program.asm_cfg is not None
        program.invalidate_predecode()
        assert program.jit_blocks == {} and program.asm_cfg is None


def settings_machine(setting, program):
    """A machine whose JIT generates code under one combination of
    settings: bus accounting, access trace, fetch recording."""
    memory, trace, record = setting
    space = AddressSpace.standard(trace=trace)
    if memory == "space":
        return Machine(program, space, record_fetches=record)
    bus = FlatBus(space) if memory == "flat" else CachedBus(space)
    return Machine(program, bus=bus, record_fetches=record)


def observe(machine, *, prestep=False):
    if prestep:
        machine.step()        # the optimizer's guard proof no longer applies
    machine.run(jit=True)
    stats = getattr(machine.space, "stats", None)
    backing = getattr(machine.space, "space", machine.space)
    return (machine.regs.snapshot(), machine.steps, list(backing.trace),
            None if stats is None else repr(vars(stats)),
            machine.jit_stats)


SETTINGS = [("space", False, False), ("space", True, True),
            ("flat", False, True), ("flat", True, False),
            ("cached", False, True), ("cached", True, True)]


class TestSettingsKeyTheCache:
    """One Program under every code-generation setting matches a private
    copy per setting: no setting reuses another's compiled code."""

    def test_bus_trace_and_fetch_settings(self):
        shared = program_from_source(SOURCE)
        for setting in SETTINGS:
            private = program_from_source(SOURCE)
            assert (observe(settings_machine(setting, shared))
                    == observe(settings_machine(setting, private))), setting

    def test_guard_proof_applied_or_not(self):
        shared = optimize_program(program_from_source(SOURCE)).program
        for prestep in (False, True, False):
            private = optimize_program(program_from_source(SOURCE)).program
            got = observe(settings_machine(("flat", False, True), shared),
                          prestep=prestep)
            want = observe(settings_machine(("flat", False, True), private),
                           prestep=prestep)
            assert got == want, prestep
            assert (got[-1].guards_elided > 0) is not prestep
