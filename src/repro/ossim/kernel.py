"""The simulated kernel: scheduling, fork/exec/wait/exit, signals.

A deterministic, inspectable model of the mechanisms CS 31 teaches:
round-robin timesharing with context switches, the fork/exec/wait/exit
lifecycle with zombies and orphan reparenting, and asynchronous signal
delivery with user handlers (SIGCHLD above all). Determinism is the
point — homework answers about "possible outputs" are checked by
exhaustively exploring schedules (see :mod:`repro.ossim.analysis`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import (
    CMemoryError,
    InvalidSyscall,
    IsaError,
    NoSuchProcess,
    OsError_,
)
from repro.ossim.pcb import PCB, ProcessState, Signal
from repro.ossim.programs import (
    Compute,
    Exec,
    Exit,
    Fork,
    InstallHandler,
    KillChild,
    Op,
    Pause,
    Print,
    ProgramRegistry,
    Repeat,
    RunBinary,
    Wait,
    WaitPid,
    standard_binaries,
)

INIT_PID = 1

#: picks which ready pid runs next; default takes the queue head
Picker = Callable[["Kernel", list[int]], int]


@dataclass
class KernelStats:
    context_switches: int = 0
    total_units: int = 0
    forks: int = 0
    signals_delivered: int = 0


class Kernel:
    """One machine's worth of processes."""

    def __init__(self, *, timeslice: int = 2,
                 registry: ProgramRegistry | None = None,
                 recorder=None) -> None:
        from repro.obs.recorder import coalesce
        if timeslice < 1:
            raise OsError_("timeslice must be >= 1")
        self.timeslice = timeslice
        self.registry = registry or standard_binaries()
        #: shared trace recorder (see repro.obs); NULL_RECORDER when off
        self.recorder = coalesce(recorder)
        self.table: dict[int, PCB] = {}
        self.ready: deque[int] = deque()
        self.output: list[tuple[int, str]] = []
        #: compiled-program processes: pid → the ISA machine running it
        #: (kept after exit so reports can read final registers/steps)
        self.machines: dict[int, object] = {}
        #: pid → the VirtualBus owing that pid an address space; popped
        #: (and the bus told to destroy_process) when the process exits
        self._binary_buses: dict[int, object] = {}
        self.stats = KernelStats()
        self._next_pid = INIT_PID
        self._last_ran: int | None = None
        # hot-path trace handles, resolved once per identity so the
        # per-unit cost is one dict hit + one handle call (and nothing
        # at all when the recorder is disabled): pid → {op class →
        # span emitter} with the running pid's map pre-selected at
        # dispatch, (event name, pid) → instant series, plus the
        # kernel's context-switch instant series
        self._traced = self.recorder.enabled
        self._op_emit: dict = {}
        self._cur_emit: dict = {}
        self._inst_series: dict = {}
        self._cs_series = None
        # init: adopts orphans, auto-reaps, never scheduled
        init = self._new_pcb("init", ppid=0, ops=[])
        init.state = ProcessState.BLOCKED

    # -- process table ---------------------------------------------------------

    def _new_pcb(self, name: str, ppid: int, ops: Sequence[Op]) -> PCB:
        pid = self._next_pid
        self._next_pid += 1
        pcb = PCB(pid=pid, ppid=ppid, name=name, program=list(ops))
        self.table[pid] = pcb
        return pcb

    def process(self, pid: int) -> PCB:
        """Look up a PCB by pid; NoSuchProcess if absent."""
        pcb = self.table.get(pid)
        if pcb is None:
            raise NoSuchProcess(f"no process {pid}")
        return pcb

    def spawn(self, name: str, ops: Sequence[Op], *,
              ppid: int = INIT_PID) -> int:
        """Create a process running ``ops`` (the kernel's 'load program')."""
        parent = self.process(ppid)
        pcb = self._new_pcb(name, ppid=ppid, ops=ops)
        parent.children.append(pcb.pid)
        self.ready.append(pcb.pid)
        return pcb.pid

    def exec_binary(self, name: str, program, *, bus,
                    ppid: int = INIT_PID, batch: int = 100,
                    recorder=None, jit: bool = False) -> int:
        """Load a compiled ISA :class:`~repro.isa.instructions.Program`
        as a process running over a :class:`~repro.system.bus.VirtualBus`.

        The bus gives the pid its own page table and backing address
        space; the machine binds that per-pid view, so every fetch,
        load, and store the program performs is translated by the MMU
        as this process (the first access after a context switch goes
        through ``MMU.context_switch`` — an untagged TLB flushes).
        Each scheduler unit executes ``batch`` instructions. On halt
        the process exits with ``%eax``; the bus then releases its
        frames via ``destroy_process``.
        """
        if batch < 1:
            raise OsError_("batch must be >= 1")
        from repro.isa.machine import Machine
        pid = self.spawn(name, [], ppid=ppid)
        bus.create_process(pid)
        machine = Machine(program, bus=bus, pid=pid,
                          record_fetches=True, recorder=recorder, jit=jit)
        self.process(pid).program = [RunBinary(machine, batch, jit)]
        self.machines[pid] = machine
        self._binary_buses[pid] = bus
        return pid

    def processes(self) -> list[PCB]:
        """All PCBs still occupying a process-table slot."""
        return [p for p in self.table.values()
                if p.state is not ProcessState.TERMINATED]

    def process_tree(self, root: int = INIT_PID, _depth: int = 0) -> str:
        """The 'draw the process hierarchy' homework output."""
        pcb = self.process(root)
        lines = ["  " * _depth + str(pcb)]
        for child in pcb.children:
            if child in self.table:
                lines.append(self.process_tree(child, _depth + 1))
        return "\n".join(lines)

    # -- scheduling --------------------------------------------------------------

    def runnable_pids(self) -> list[int]:
        """Pids in the ready queue that are actually READY."""
        return [pid for pid in self.ready
                if self.table[pid].state is ProcessState.READY]

    def run(self, *, max_units: int = 100_000,
            picker: Picker | None = None) -> None:
        """Round-robin until every user process has terminated."""
        while True:
            runnable = self.runnable_pids()
            if not runnable:
                if any(p.state is ProcessState.BLOCKED
                       for p in self.table.values() if p.pid != INIT_PID):
                    raise OsError_(
                        "all processes blocked (waiting forever?)")
                return
            pid = picker(self, runnable) if picker else runnable[0]
            self._dispatch(pid)
            for _ in range(self.timeslice):
                if self.stats.total_units >= max_units:
                    raise OsError_("unit limit exceeded")
                if not self._step_one(pid):
                    break

    def _instant(self, name: str, pid: int, args: "dict | None") -> None:
        """Emit a lifecycle instant on a process's track via a cached
        handle (fork, exit, signal… — call only when recorder.enabled)."""
        key = (name, pid)
        series = self._inst_series.get(key)
        if series is None:
            series = self.recorder.instant_series(
                name, pid="ossim", tid=f"pid {pid}", cat="ossim")
            self._inst_series[key] = series
        series.hit(self.stats.total_units, args)

    def _dispatch(self, pid: int) -> None:
        if pid != self._last_ran:
            self.stats.context_switches += 1
            if self._traced:
                series = self._cs_series
                if series is None:
                    series = self._cs_series = self.recorder.instant_series(
                        "context-switch", pid="ossim", tid="kernel",
                        cat="ossim")
                series.hit(
                    self.stats.total_units,
                    {"from": self._last_ran, "to": pid}
                    if series.wants_args else None)
                # point the per-unit fast path at this pid's emitter
                # map so _step_one never allocates a lookup key
                cur = self._op_emit.get(pid)
                if cur is None:
                    cur = self._op_emit[pid] = {}
                self._cur_emit = cur
            self._last_ran = pid
        try:
            self.ready.remove(pid)
        except ValueError:
            pass
        self.ready.append(pid)   # back of the queue for next round

    def run_one(self, pid: int) -> bool:
        """Execute exactly one unit of ``pid`` (the explorer's step).

        Returns True if the process can still run afterwards.
        """
        self._dispatch(pid)
        return self._step_one(pid)

    # -- execution of one unit --------------------------------------------------------

    def _step_one(self, pid: int) -> bool:
        pcb = self.process(pid)
        if pcb.state is not ProcessState.READY:
            return False
        self._deliver_pending_signals(pcb)
        if pcb.state is not ProcessState.READY:
            return False
        if not pcb.program:
            # falling off main == exit(0)
            self._do_exit(pcb, 0)
            return False
        op = pcb.program.pop(0)
        pcb.cpu_time += 1
        units = self.stats.total_units + 1
        self.stats.total_units = units
        if self._traced:
            # each unit is a 1-wide span on the process's own track;
            # the emitter is resolved once per (op class, pid) and the
            # running pid's map is pre-selected at dispatch, so the
            # per-unit cost is one allocation-free dict get plus the
            # handle call (for folded series, its bound add())
            emit = self._cur_emit.get(op.__class__)
            if emit is None:
                emit = self._make_op_emit(op, pcb)
            emit(units - 1)
        return self._execute(pcb, op)

    def _make_op_emit(self, op: Op, pcb: PCB):
        """Resolve (and cache) the span emitter for one (op class, pid)."""
        series = self.recorder.span_series(
            op.__class__.__name__, pid="ossim",
            tid=f"pid {pcb.pid}", cat="ossim")
        if series.wants_args:
            def emit(ts, _add=series.add, _pcb=pcb):
                _add(ts, 1.0, {"name": _pcb.name})
        else:
            emit = series.add
        self._cur_emit[op.__class__] = emit
        return emit

    def _execute(self, pcb: PCB, op: Op) -> bool:
        if isinstance(op, Print):
            pcb.output.append(op.text)
            self.output.append((pcb.pid, op.text))
            return True
        if isinstance(op, Compute):
            if op.units > 1:
                pcb.program.insert(0, Compute(op.units - 1))
            return True
        if isinstance(op, Repeat):
            expansion: list[Op] = []
            for _ in range(op.count):
                expansion.extend(op.body)
            pcb.program[:0] = expansion
            return True
        if isinstance(op, Fork):
            self._do_fork(pcb, op)
            return True
        if isinstance(op, Exit):
            self._do_exit(pcb, op.status)
            return False
        if isinstance(op, Wait):
            return self._do_wait(pcb, target=None)
        if isinstance(op, WaitPid):
            if not 0 <= op.child_index < len(pcb.children):
                raise InvalidSyscall(
                    f"waitpid: process {pcb.pid} has no child "
                    f"#{op.child_index}")
            return self._do_wait(pcb,
                                 target=pcb.children[op.child_index])
        if isinstance(op, Exec):
            image = self.registry.lookup(op.program_name, op.argv)
            if image is None:
                raise InvalidSyscall(f"exec: no program "
                                     f"{op.program_name!r}")
            pcb.program = list(image.ops)   # replace the whole image
            pcb.name = op.program_name
            if self._traced:
                self._instant("exec", pcb.pid,
                              {"program": op.program_name})
            return True
        if isinstance(op, InstallHandler):
            pcb.handlers[op.signal] = list(op.handler)
            return True
        if isinstance(op, KillChild):
            if not 0 <= op.child_index < len(pcb.children):
                raise InvalidSyscall(
                    f"kill: process {pcb.pid} has no child "
                    f"#{op.child_index}")
            self.send_signal(pcb.children[op.child_index], op.signal)
            return True
        if isinstance(op, Pause):
            pcb.state = ProcessState.BLOCKED
            return False
        if isinstance(op, RunBinary):
            return self._run_binary(pcb, op)
        raise InvalidSyscall(f"unknown op {op!r}")

    # -- compiled programs (the full-system path) ----------------------------

    def _run_binary(self, pcb: PCB, op: RunBinary) -> bool:
        machine = op.machine
        try:
            machine.run_slice(op.batch, jit=op.jit)
        except (IsaError, CMemoryError) as exc:
            # the program crashed (segfault, divide error, bad fetch):
            # the kernel kills it, SIGSEGV-style
            pcb.fault = str(exc)
            if self._traced:
                self._instant("crash", pcb.pid, {"what": str(exc)})
            self._binary_teardown(pcb.pid)
            self._do_exit(pcb, 128 + int(Signal.SIGKILL))
            return False
        if machine.halted:
            self._binary_teardown(pcb.pid)
            self._do_exit(pcb, machine.regs.get_signed("eax"))
            return False
        pcb.program.insert(0, op)      # still running: stay loaded
        return True

    def _binary_teardown(self, pid: int) -> None:
        """Release the pid's bus-side state (frames, page table, bytes)."""
        bus = self._binary_buses.pop(pid, None)
        if bus is not None:
            bus.destroy_process(pid)

    # -- fork / exit / wait ------------------------------------------------------------

    def _do_fork(self, parent: PCB, op: Fork) -> None:
        child = self._new_pcb(parent.name, ppid=parent.pid,
                              ops=list(op.child) + list(parent.program))
        child.handlers = dict(parent.handlers)   # inherited dispositions
        parent.children.append(child.pid)
        parent.program[:0] = list(op.parent)
        self.ready.append(child.pid)
        self.stats.forks += 1
        if self._traced:
            self._instant("fork", parent.pid, {"child": child.pid})

    def _do_exit(self, pcb: PCB, status: int) -> None:
        if self._traced:
            self._instant("exit", pcb.pid, {"status": status})
        pcb.exit_status = status
        pcb.state = ProcessState.ZOMBIE
        if pcb.pid in self.ready:
            self.ready.remove(pcb.pid)
        # orphans are adopted by init; zombie orphans are reaped right away
        for child_pid in pcb.children:
            child = self.table.get(child_pid)
            if child is None or child.state is ProcessState.TERMINATED:
                continue   # already reaped: PCB is gone on a real system
            child.ppid = INIT_PID
            self.process(INIT_PID).children.append(child_pid)
            if child.state is ProcessState.ZOMBIE:
                child.state = ProcessState.TERMINATED
        parent = self.table.get(pcb.ppid)
        if parent is None or parent.state in (ProcessState.ZOMBIE,
                                              ProcessState.TERMINATED):
            pcb.state = ProcessState.TERMINATED
            return
        if parent.pid == INIT_PID:
            pcb.state = ProcessState.TERMINATED   # init auto-reaps
            return
        parent.zombie_children.append(pcb.pid)
        self.send_signal(parent.pid, Signal.SIGCHLD)
        if parent.waiting and (parent.wait_target is None
                               or parent.wait_target == pcb.pid):
            self._complete_wait(parent)

    def _do_wait(self, pcb: PCB, target: int | None) -> bool:
        def reapable() -> int | None:
            if target is None:
                return pcb.zombie_children[0] if pcb.zombie_children else None
            if target in pcb.zombie_children:
                return target
            # already reaped or never existed as zombie
            t = self.table.get(target)
            if t is None or t.state is ProcessState.TERMINATED:
                return -1   # nothing left to wait for
            return None

        got = reapable()
        if got == -1:
            return True
        if got is not None:
            self._reap(pcb, got)
            return True
        if not any(self.table[c].alive or c in pcb.zombie_children
                   for c in pcb.children if c in self.table):
            return True   # wait() with no children returns immediately
        pcb.state = ProcessState.BLOCKED
        pcb.waiting = True
        pcb.wait_target = target
        if self._traced:
            self._instant("wait-blocked", pcb.pid, {"target": target})
        return False

    def _complete_wait(self, parent: PCB) -> None:
        target = parent.wait_target
        got = (target if target in parent.zombie_children
               else parent.zombie_children[0])
        self._reap(parent, got)
        parent.waiting = False
        parent.wait_target = None
        parent.state = ProcessState.READY
        if parent.pid not in self.ready:
            self.ready.append(parent.pid)

    def _reap(self, parent: PCB, child_pid: int) -> None:
        parent.zombie_children.remove(child_pid)
        self.process(child_pid).state = ProcessState.TERMINATED

    # -- signals --------------------------------------------------------------------------

    def send_signal(self, pid: int, sig: Signal) -> None:
        """Deliver a signal (kill); wakes paused targets."""
        pcb = self.table.get(pid)
        if pcb is None or not pcb.alive:
            return
        pcb.pending_signals.append(sig)
        self.stats.signals_delivered += 1
        if self._traced:
            self._instant("signal", pid, {"sig": sig.name})
        # signals interrupt Pause (and wake BLOCKED processes that have a
        # handler or a terminating default)
        if pcb.state is ProcessState.BLOCKED and not pcb.waiting:
            pcb.state = ProcessState.READY
            if pcb.pid not in self.ready:
                self.ready.append(pcb.pid)

    def _deliver_pending_signals(self, pcb: PCB) -> None:
        while pcb.pending_signals and pcb.alive:
            sig = pcb.pending_signals.pop(0)
            handler = pcb.handlers.get(sig)
            if self._traced:
                self._instant(
                    "signal-delivered", pcb.pid,
                    {"sig": sig.name,
                     "disposition": ("handler" if handler is not None
                                     else "default")})
            if sig == Signal.SIGKILL:         # cannot be caught
                self._do_exit(pcb, 128 + int(sig))
                return
            if handler is not None:
                pcb.program[:0] = list(handler)
                continue
            if sig in (Signal.SIGCHLD, Signal.SIGCONT):
                continue                      # default: ignore
            if sig == Signal.SIGSTOP:
                continue                      # stop/cont not modelled
            # default action for the rest: terminate
            self._do_exit(pcb, 128 + int(sig))
            return

    # -- inspection ------------------------------------------------------------------------

    def output_string(self) -> str:
        """Everything every process printed, in the order it happened."""
        return "".join(text for _, text in self.output)

    def exit_status_of(self, pid: int) -> int | None:
        """A process's exit status (None while it is still alive)."""
        return self.process(pid).exit_status

    def all_done(self) -> bool:
        """True when every user process has exited."""
        return not any(p.alive for p in self.table.values()
                       if p.pid != INIT_PID)
