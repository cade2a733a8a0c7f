"""Run one compiled program through the whole stack, on any bus.

This is the vertical slice as a single call: C source (or assembly) is
compiled and assembled once, then executed over a chosen
:mod:`repro.system.bus` — flat, cached, or virtual (processes on the
simulated kernel, with MMU/TLB translation per pid). One run yields a
:class:`RunReport`: instructions, bus cycles, CPI, per-level cache miss
rates, TLB/fault counters, and kernel scheduling stats, all from the
same simulators the homeworks use individually.

    >>> from repro.system import run_system
    >>> report = run_system("int main() { return 40 + 2; }", bus="flat")
    >>> report.exit_statuses
    {0: 42}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro._util import format_table, read_source
from repro.errors import BusError
from repro.isa.assembler import assemble
from repro.isa.ccompiler import compile_c
from repro.isa.instructions import Program
from repro.isa.machine import Machine
from repro.system.bus import BUS_KINDS, CostModel, make_bus


def load_program(path: str | Path, *, entry: str = "main") -> Program:
    """Compile/assemble a ``.c`` or ``.s`` file into a Program."""
    path = Path(path)
    source = read_source(path)
    if path.suffix == ".c":
        return assemble(compile_c(source), entry=entry)
    if path.suffix == ".s":
        return assemble(source, entry=entry)
    raise BusError(f"don't know how to load {path.name!r} "
                   "(expected a .c or .s file)")


def program_from_source(source: str, *, entry: str = "main") -> Program:
    """Compile C-subset source text (the docstring/test convenience)."""
    return assemble(compile_c(source), entry=entry)


@dataclass
class RunReport:
    """Everything one full-system run observed, cross-referenced.

    ``counters()`` flattens the interesting numbers into one dict — the
    stats-equality currency of the E16 bench and the CI smoke job.
    """
    bus_kind: str
    pipeline: str                 # bus.describe()
    instructions: int
    cycles: float                 # bus cycles + instruction base cost
    bus_counters: dict[str, float]
    exit_statuses: dict[int, int]            # pid → status (0 = direct run)
    cache_levels: list[dict] = field(default_factory=list)
    tlb: dict | None = None
    vm: dict | None = None
    kernel: dict | None = None
    faults: dict[int, str] = field(default_factory=dict)  # pid → crash msg
    #: superblock-JIT stats (blocks compiled, side exits, coverage);
    #: None when the run interpreted everything. Deliberately NOT part
    #: of counters() — JIT on/off must not change the stats-equality
    #: currency the benches compare.
    jit: dict | None = None
    #: optimizer summary (per-pass rewrite counts, validator verdicts)
    #: when the run was given ``opt=True``; None otherwise. Also not in
    #: counters() — the *effect* of optimizing shows up there already,
    #: as fewer instructions/cycles.
    opt: dict | None = None

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def counters(self) -> dict[str, float]:
        out = {"instructions": self.instructions, "cycles": self.cycles,
               "cpi": self.cpi}
        out.update({f"bus_{k}": v for k, v in self.bus_counters.items()})
        for i, level in enumerate(self.cache_levels):
            out.update({f"l{i + 1}_{k}": v for k, v in level.items()})
        for prefix, stats in (("tlb", self.tlb), ("vm", self.vm),
                              ("kernel", self.kernel)):
            if stats:
                out.update({f"{prefix}_{k}": v for k, v in stats.items()})
        return out

    def render(self) -> str:
        lines = [f"bus: {self.pipeline}",
                 f"instructions: {self.instructions}",
                 f"cycles: {self.cycles:.0f}   CPI: {self.cpi:.2f}"]
        rows = [(k, f"{v:.0f}" if isinstance(v, float) else str(v))
                for k, v in self.bus_counters.items()]
        lines.append(format_table(["bus counter", "value"], rows,
                                  align_right=[False, True]))
        if self.cache_levels:
            rows = [(f"L{i + 1}", str(s["accesses"]), f"{s['hit_rate']:.1%}")
                    for i, s in enumerate(self.cache_levels)]
            lines.append(format_table(
                ["level", "accesses", "local hit rate"], rows,
                align_right=[False, True, True]))
        if self.tlb:
            lines.append(
                f"TLB: {self.tlb['hits']} hits / {self.tlb['misses']} misses "
                f"({self.tlb['hit_rate']:.1%}), {self.tlb['flushes']} flushes")
        if self.vm:
            lines.append(
                f"VM: {self.vm['page_faults']} page faults, "
                f"{self.vm['evictions']} evictions, "
                f"{self.vm['writebacks']} writebacks, "
                f"{self.vm['context_switches']} context switches")
        if self.kernel:
            lines.append(
                f"kernel: {self.kernel['context_switches']} context "
                f"switches over {self.kernel['total_units']} units")
        if self.jit:
            covered = self.jit["jit_steps"] / self.instructions \
                if self.instructions else 0.0
            lines.append(
                f"jit: {self.jit['blocks_compiled']} blocks compiled, "
                f"{self.jit['entries']} entries, "
                f"{self.jit['side_exits']} side exits, "
                f"{covered:.1%} of instructions in compiled blocks")
            if self.jit.get("guards_elided"):
                lines.append(f"jit: {self.jit['guards_elided']} bounds "
                             "guards elided (proved stack-safe)")
        if self.opt:
            lines.append(f"opt: {self.opt['summary']}")
        for pid, status in sorted(self.exit_statuses.items()):
            who = f"pid {pid}" if pid else "program"
            crash = f"  [killed: {self.faults[pid]}]" \
                if pid in self.faults else ""
            lines.append(f"{who}: exit status {status}{crash}")
        return "\n".join(lines)


def _cache_level_stats(hierarchy) -> list[dict]:
    return [{"accesses": c.stats.accesses, "hits": c.stats.hits,
             "misses": c.stats.misses, "hit_rate": c.stats.hit_rate,
             "miss_rate": c.stats.miss_rate}
            for c in hierarchy.levels]


def run_system(program: Program | str, *, bus: str = "flat",
               procs: int = 1, cost: CostModel | None = None,
               recorder=None, timeslice: int = 2, batch: int = 100,
               max_steps: int = 1_000_000, entry: str = "main",
               jit: bool = True, opt: bool = False,
               **bus_kwargs) -> RunReport:
    """Execute ``program`` over the chosen bus and report the trip.

    ``program`` is an assembled :class:`Program` or C-subset source
    text. ``flat``/``cached`` run the machine directly (the predecoded
    fast path); ``virtual`` boots a :class:`~repro.ossim.kernel.Kernel`
    and runs ``procs`` copies of the program as timeshared processes,
    each with its own page table on one shared
    :class:`~repro.system.bus.VirtualBus`.

    ``jit`` (default on) compiles hot superblocks once per program and
    binds them per machine (see :mod:`repro.isa.jit`); every reported
    number except wall-clock time is identical either way — the
    differential tests pin that. Tracing
    composes with the JIT: an enabled recorder gets one complete-span
    per compiled-block execution (per-instruction spans only where the
    interpreter runs), with identical reported stats either way.

    ``opt`` (default off) runs the program through the translation-
    validated optimizer pipeline (:mod:`repro.analysis.opt`) first;
    the report's ``opt`` field carries the pass summary. Final machine
    state is unchanged by construction — every rewritten block is
    proved equivalent or reverted.
    """
    if isinstance(program, str):
        program = program_from_source(program, entry=entry)
    opt_stats = None
    if opt:
        from repro.analysis.opt import optimize_program
        result = optimize_program(program)
        program = result.program
        opt_stats = {
            "summary": result.summary(),
            "static_before": result.static_before,
            "static_after": result.static_after,
            "proved_safe": result.proved_safe,
            "pass_stats": dict(result.pass_stats),
            "rejections": [str(r) for r in result.rejections],
            "bailed": result.bailed,
        }
    if bus not in BUS_KINDS:
        raise BusError(f"unknown bus kind {bus!r} "
                       f"(choose from {', '.join(BUS_KINDS)})")
    if procs < 1:
        raise BusError("procs must be >= 1")
    if procs > 1 and bus != "virtual":
        raise BusError("multiple processes need --bus virtual "
                       "(flat/cached have no per-pid isolation)")
    cost = cost or CostModel()
    the_bus = make_bus(bus, cost=cost, recorder=recorder, **bus_kwargs)

    if bus == "virtual":
        from repro.ossim.kernel import Kernel
        kernel = Kernel(timeslice=timeslice, recorder=recorder)
        pids = [kernel.exec_binary(f"{entry}#{i}", program, bus=the_bus,
                                   batch=batch, recorder=recorder, jit=jit)
                for i in range(procs)]
        kernel.run(max_units=max(max_steps // batch, 1) * procs + procs)
        instructions = sum(kernel.machines[pid].steps for pid in pids)
        jit_stats = _fold_jit_stats(kernel.machines[pid] for pid in pids)
        exit_statuses = {pid: kernel.exit_status_of(pid) for pid in pids}
        faults = {pid: kernel.process(pid).fault for pid in pids
                  if kernel.process(pid).fault}
        kernel_stats = {
            "context_switches": kernel.stats.context_switches,
            "total_units": kernel.stats.total_units,
            "forks": kernel.stats.forks,
        }
        mmu = the_bus.mmu
        tlb = {"hits": mmu.tlb.stats.hits, "misses": mmu.tlb.stats.misses,
               "flushes": mmu.tlb.stats.flushes,
               "hit_rate": mmu.tlb.stats.hit_rate}
        vm = {"accesses": mmu.stats.accesses,
              "page_faults": mmu.stats.page_faults,
              "evictions": mmu.stats.evictions,
              "writebacks": mmu.stats.writebacks,
              "context_switches": mmu.stats.context_switches}
        cache_levels = _cache_level_stats(the_bus.hierarchy)
    else:
        machine = Machine(program, bus=the_bus, record_fetches=True,
                          recorder=recorder, jit=jit)
        status = machine.run(max_steps=max_steps)
        instructions = machine.steps
        jit_stats = _fold_jit_stats([machine])
        exit_statuses = {0: status}
        faults = {}
        kernel_stats = None
        tlb = vm = None
        cache_levels = (_cache_level_stats(the_bus.hierarchy)
                        if bus == "cached" else [])

    return RunReport(
        bus_kind=bus,
        pipeline=the_bus.describe(),
        instructions=instructions,
        cycles=instructions * cost.instruction_time + the_bus.stats.cycles,
        bus_counters=the_bus.stats.counters(),
        exit_statuses=exit_statuses,
        cache_levels=cache_levels,
        tlb=tlb, vm=vm, kernel=kernel_stats,
        faults=faults,
        jit=jit_stats,
        opt=opt_stats,
    )


def _fold_jit_stats(machines) -> dict | None:
    """Sum per-machine JitStats into one report dict (None if no JIT)."""
    total: dict[str, int] = {}
    for machine in machines:
        stats = machine.jit_stats
        if stats is None:
            continue
        for key, value in stats.as_dict().items():
            total[key] = total.get(key, 0) + value
    return total or None
