"""Superblocks form once per Program, compile once per process and bind
once per machine.

Two processes running one :class:`Program` share its formed
superblocks (``program.jit_blocks``), and every block, in any program,
that renders to the same source (the same shape: operand values are
passed to the code, not written into it) shares one code object (the
process-wide code cache, ``jit._code``): each distinct shape goes
through ``compile`` once, while every machine still execs the shared
code into its own namespace, binds the block's own constants, its own
registers and memory, and keeps its own :class:`JitStats`. The tests
count the ``compile`` calls made from :mod:`repro.isa.jit` and compare
shared runs against runs in which every process has a private copy of
the program, or the code cache starts empty or holds two shapes.
"""

import functools
from collections import Counter

import pytest

from repro.analysis.opt import optimize_program
from repro.clib.address_space import AddressSpace
from repro.isa import jit as jitmod
from repro.isa.machine import Machine
from repro.ossim.kernel import Kernel
from repro.system.bus import CachedBus, FlatBus, VirtualBus
from repro.system.runner import program_from_source, run_system

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
    """The sources passed to every ``compile`` call in repro.isa.jit,
    counted from an empty code cache."""
    jitmod._code.cache_clear()
    seen: list[str] = []

    def counting(source, filename, mode, *args, **kwargs):
        seen.append(source)
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
        # one compile per distinct shape
        assert len(compiles) == len({id(b.code) for b in formed})
        # ...while each machine still installed every block it entered
        installed = [kernel.machines[pid].jit_stats.blocks_compiled
                     for pid in pids]
        assert installed == [len(formed), len(formed)]

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

    def test_invalidate_predecode_drops_blocks(self):
        program = program_from_source(SOURCE)
        run_processes([program])
        assert program.jit_blocks and program.asm_cfg is not None
        program.invalidate_predecode()
        assert program.jit_blocks == {} and program.asm_cfg is None


def cold(run):
    """``run()`` with the code cache cleared first."""
    jitmod._code.cache_clear()
    return run()


def loop_source(k: int) -> str:
    """SOURCE with the first loop's added constant set to ``k``."""
    return SOURCE.replace("a[i] = i * n;", f"a[i] = i * n + {k};")


class TestCodeCache:
    """Blocks of one shape share a code object, never state."""

    def test_distinct_programs_share_code(self, compiles):
        first = program_from_source(SOURCE)
        second = program_from_source(SOURCE)
        kernel, pids = run_processes([first, second])
        assert first.asm_cfg is not None
        assert first.asm_cfg is not second.asm_cfg
        assert first.jit_blocks is not second.jit_blocks
        codes = [{k: b.code for k, b in p.jit_blocks.items()
                  if b is not None} for p in (first, second)]
        assert codes[0] and codes[0].keys() == codes[1].keys()
        assert all(codes[0][k] is codes[1][k] for k in codes[0])
        # each distinct shape compiled exactly once, for both programs
        assert len(compiles) == len({id(c) for c in codes[0].values()})
        assert max(Counter(compiles).values()) == 1
        # ...and running on shared code equals running from a cold cache
        again, pids_c = cold(lambda: run_processes(
            [program_from_source(SOURCE), program_from_source(SOURCE)]))
        for pid, pid_c in zip(pids, pids_c):
            assert final_state(kernel, pid) == final_state(again, pid_c)
            assert (kernel.machines[pid].jit_stats
                    == again.machines[pid_c].jit_stats)

    @pytest.mark.parametrize("bus,procs", [("flat", 1), ("cached", 1),
                                           ("virtual", 2)])
    def test_warm_reports_equal_cold(self, bus, procs, compiles):
        def run():
            return run_system(program_from_source(SOURCE), bus=bus,
                              procs=procs, timeslice=1, batch=37)
        first = cold(run)
        assert compiles
        del compiles[:]
        warm = run()
        assert compiles == []                  # every block was cached
        again = cold(run)
        for report in (warm, again):
            assert report.counters() == first.counters()
            assert report.exit_statuses == first.exit_statuses
            assert report.jit == first.jit

    def test_a_changed_loop_constant_shares_code_not_constants(
            self, compiles):
        one = program_from_source(loop_source(1))
        two = program_from_source(loop_source(2))
        differs = {ins.address for ins in one.instructions
                   if str(ins) != str(two.by_address[ins.address])}
        assert len(differs) == 1
        kernels = []
        for program in (one, two):
            kernel, (pid,) = run_processes([program])
            kernels.append((kernel, pid))
        assert (kernels[0][0].exit_status_of(kernels[0][1])
                != kernels[1][0].exit_status_of(kernels[1][1]))
        changed = 0
        for key, block in one.jit_blocks.items():
            other = two.jit_blocks.get(key)
            if block is None or other is None:
                continue
            assert block.code is other.code
            if differs & set(block.addresses):
                assert block.consts != other.consts
                changed += 1
        assert changed
        # each program's run equals its own run from a cold cache
        for source, (kernel, pid) in zip((loop_source(1), loop_source(2)),
                                         kernels):
            alone, (solo,) = cold(lambda: run_processes(
                [program_from_source(source)]))
            assert final_state(kernel, pid) == final_state(alone, solo)
            assert (kernel.machines[pid].jit_stats
                    == alone.machines[solo].jit_stats)

    def test_a_changed_operation_shares_no_code(self, compiles):
        one = program_from_source(SOURCE)
        two = program_from_source(SOURCE.replace("a[i] = i * n;",
                                                 "a[i] = i - n;"))
        differs = {ins.address for ins in one.instructions
                   if ins.mnemonic != two.by_address[ins.address].mnemonic}
        assert differs
        for program in (one, two):
            run_processes([program])
        changed = 0
        for key, block in one.jit_blocks.items():
            other = two.jit_blocks.get(key)
            if block is None or other is None:
                continue
            if differs & set(block.addresses):
                assert block.code is not other.code
                changed += 1
        assert changed

    def test_the_cache_is_bounded_by_the_module_constant(self):
        info = jitmod._code.cache_info
        assert info().maxsize == jitmod.MAX_CODE
        for k in range(4):
            run_processes([program_from_source(loop_source(k))])
            assert 0 < info().currsize <= jitmod.MAX_CODE

    @pytest.mark.parametrize("bus,procs", [("cached", 1), ("virtual", 2)])
    def test_an_evicted_shape_recompiles_to_the_same_reports(
            self, bus, procs, compiles, monkeypatch):
        def run():
            return run_system(program_from_source(SOURCE), bus=bus,
                              procs=procs, timeslice=1, batch=37)
        want = cold(run)
        monkeypatch.setattr(jitmod, "_code", functools.lru_cache(maxsize=2)(
            jitmod._code.__wrapped__))
        del compiles[:]
        got = [run(), run()]
        # the second run formed its blocks again and found most of its
        # shapes evicted, so it compiled them again
        assert len(set(compiles)) > 2
        assert max(Counter(compiles).values()) > 1
        for report in got:
            assert report.counters() == want.counters()
            assert report.exit_statuses == want.exit_statuses
            assert report.jit == want.jit


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
