"""A deterministic simulated multicore machine for thread programs.

CPython's GIL prevents OS threads from showing parallel speedup, and a
grading host may have a single core — so the course's "measure near
linear speedup up to 16 threads" experience is reproduced on a
*simulated* machine (see DESIGN.md, substitution table).

Thread bodies are generator functions that yield :class:`Work` (cycles
of computation) and synchronization events. :class:`SimMachine` runs a
discrete-event simulation: up to ``num_cores`` chunks of work proceed
concurrently, synchronization blocks and wakes threads at exact cycle
times, and the makespan falls out deterministically. Speedup is then
``serial cycles / parallel makespan`` — exact, reproducible, and showing
precisely the contention effects the course teaches.

Example::

    def worker(n):
        yield Work(n)

    m = SimMachine(num_cores=4)
    for _ in range(4):
        m.spawn(worker, 1000)
    m.run()
    assert m.makespan == 1000          # perfect 4x speedup
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable

from repro.errors import ConcurrencyError, DeadlockError, SyncUsageError
from repro.core.sync import Barrier, ConditionVariable, Mutex, Semaphore


# ---------------------------------------------------------------------------
# Events thread bodies yield
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Work:
    """Occupy a core for ``cycles`` cycles.

    ``io=True`` marks the cycles as blocking I/O rather than
    interpreter work: the thread leaves its core (any number of I/O
    operations overlap) and, on a machine with a GIL, releases the
    interpreter lock for the duration — exactly what CPython does
    around blocking syscalls. Equivalent to yielding :class:`IoWait`.
    """
    cycles: float
    io: bool = False

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ConcurrencyError("work cycles cannot be negative")


@dataclass(frozen=True)
class IoWait:
    """Block in the kernel for ``cycles`` cycles (releases core + GIL)."""
    cycles: float

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ConcurrencyError("io cycles cannot be negative")


@dataclass(frozen=True)
class Lock:
    mutex: Mutex


@dataclass(frozen=True)
class Unlock:
    mutex: Mutex


@dataclass(frozen=True)
class BarrierWait:
    barrier: Barrier


@dataclass(frozen=True)
class CondWait:
    cond: ConditionVariable
    mutex: Mutex


@dataclass(frozen=True)
class CondSignal:
    cond: ConditionVariable


@dataclass(frozen=True)
class CondBroadcast:
    cond: ConditionVariable


@dataclass(frozen=True)
class SemWait:
    sem: Semaphore


@dataclass(frozen=True)
class SemPost:
    sem: Semaphore


@dataclass(frozen=True)
class Join:
    thread: "SimThread"


@dataclass(frozen=True)
class Access:
    """A shared-variable touch (zero cost) for the race detector."""
    var: str
    kind: str = "read"     # 'read' | 'write'


@dataclass(frozen=True)
class AtomicOp:
    """An atomic read-modify-write (the course's 'atomic operations').

    ``action`` is a zero-argument callable executed indivisibly at the
    event's completion time — no other thread's events interleave inside
    it, which is exactly the hardware guarantee (e.g. ``lock xadd``).
    The race detector treats it as a write under a dedicated implicit
    lock, so atomics never race with each other.
    """
    var: str
    action: Callable[[], None]
    cycles: float = 3.0    # atomics cost more than plain accesses


Event = object
ThreadBody = Callable[..., Generator[Event, None, None]]


@dataclass(frozen=True)
class SyncCosts:
    """Cycle costs of synchronization operations (the overhead lesson)."""
    lock: float = 10.0
    unlock: float = 5.0
    barrier: float = 50.0
    cond: float = 10.0
    sem: float = 10.0
    spawn: float = 100.0


@dataclass(frozen=True)
class GilConfig:
    """CPython's interpreter lock, deterministically.

    With ``gil=GilConfig(...)`` the machine runs the *new GIL*
    (3.2+) protocol: at most one thread executes interpreter events at
    a time regardless of ``num_cores``; :class:`Work` events are sliced
    at ``switch_interval_cycles`` (the ``sys.setswitchinterval``
    analogue) and the holder hands the lock to the longest-waiting
    thread at a slice boundary whenever someone is waiting; blocking
    I/O (:class:`IoWait` / ``Work(io=True)``) and blocked sync events
    release the lock. Every handoff charges ``acquire_cost`` cycles to
    the new holder.

    The two lessons this reproduces measurably (rohan-varma's GIL
    post): CPU-bound threads do not scale past one core, and I/O-bound
    threads still overlap — plus the convoy effect, where an I/O thread
    keeps waiting up to a full switch interval behind a CPU hog after
    every I/O completion.
    """
    switch_interval_cycles: float = 100.0
    acquire_cost: float = 5.0

    def __post_init__(self) -> None:
        if not 0 < self.switch_interval_cycles < math.inf:
            raise ConcurrencyError("switch interval must be finite and > 0")
        if not 0 <= self.acquire_cost < math.inf:
            raise ConcurrencyError("acquire cost must be finite and >= 0")


@dataclass
class GilStats:
    """What the interpreter lock did during a run."""
    acquisitions: int = 0     # times the lock was granted
    handoffs: int = 0         # preemptive switch-interval transfers
    slices: int = 0           # work slices executed under the lock
    hold_cycles: float = 0.0  # total cycles the lock was held
    wait_cycles: float = 0.0  # thread-cycles spent waiting for the lock
    io_cycles: float = 0.0    # cycles spent in I/O with the lock free


# ---------------------------------------------------------------------------
# Threads
# ---------------------------------------------------------------------------

@dataclass
class SimThread:
    tid: int
    name: str
    gen: Generator
    state: str = "ready"           # ready | blocked | done
    finish_time: float | None = None
    waiting_on: object | None = None
    block_start: float = 0.0
    locks_held: set = field(default_factory=set)
    joiners: list = field(default_factory=list)
    busy_cycles: float = 0.0
    blocked_cycles: float = 0.0
    io_cycles: float = 0.0
    #: cycles left of the Work event the thread is running in slices
    work_left: float = 0.0
    #: when this thread started waiting for the GIL (stats only)
    gil_wait_start: float = 0.0

    def __hash__(self) -> int:
        return self.tid

    def __repr__(self) -> str:
        return f"SimThread({self.tid}, {self.name!r}, {self.state})"


class SimMachine:
    """The simulated multicore computer."""

    def __init__(self, num_cores: int = 1,
                 costs: SyncCosts | None = None,
                 race_detector=None, recorder=None,
                 gil: GilConfig | None = None) -> None:
        from repro.obs.recorder import coalesce
        if num_cores < 1:
            raise ConcurrencyError("need at least one core")
        self.num_cores = num_cores
        self.costs = costs or SyncCosts()
        self.race_detector = race_detector
        #: None = the default free-threaded machine (bit-identical to
        #: the pre-GIL seed); a GilConfig serializes interpreter work
        self.gil = gil
        self.gil_stats = GilStats()
        self._gil_holder: SimThread | None = None
        self._gil_queue: deque[SimThread] = deque()
        self._gil_free_at = 0.0
        self._gil_acquired_at = 0.0
        #: the holder's switch-interval budget; infinite without a GIL,
        #: so Work runs in one piece
        self._quantum_left = math.inf
        #: shared trace recorder (see repro.obs); NULL_RECORDER when off
        self.recorder = coalesce(recorder)
        self.threads: list[SimThread] = []
        #: (free-at time, core id) heap — identity kept for the timeline
        self._cores: list[tuple[float, int]] = [(0.0, i)
                                                for i in range(num_cores)]
        heapq.heapify(self._cores)
        #: (core id, thread name, start, end) execution segments
        self.timeline: list[tuple[int, str, float, float]] = []
        self._pending: list[tuple[float, int, SimThread]] = []
        self._seq = 0
        #: implicit per-variable lock tokens for atomic operations
        self._atomic_tokens: dict[str, Mutex] = {}
        self.now = 0.0
        self.makespan = 0.0
        self.total_work_cycles = 0.0
        self._ran = False
        #: (core id, thread name) → gantt span series (trace handles)
        self._gantt_series: dict[tuple[int, str], object] = {}

    # -- thread management ------------------------------------------------------

    def spawn(self, body: ThreadBody, *args, name: str | None = None,
              **kwargs) -> SimThread:
        """pthread_create: start a thread running ``body(*args)``."""
        tid = len(self.threads)
        thread = SimThread(tid, name or f"thread-{tid}",
                           body(*args, **kwargs))
        self.threads.append(thread)
        self._schedule(thread, self.now + self.costs.spawn)
        return thread

    def _schedule(self, thread: SimThread, time: float) -> None:
        self._seq += 1
        heapq.heappush(self._pending, (time, self._seq, thread))

    # -- the event loop -----------------------------------------------------------

    def run(self, *, max_events: int = 10_000_000) -> float:
        """Run until every thread finishes; returns the makespan.

        One loop serves both machines: pop the earliest ready thread,
        let the GIL (if any) admit it, and advance it on the core that
        has been free longest.
        """
        gil = self.gil
        events = 0
        while self._pending:
            events += 1
            if events > max_events:
                raise ConcurrencyError("event limit exceeded")
            ready_time, _, thread = heapq.heappop(self._pending)
            if thread.state == "done" or (
                    gil is not None
                    and not self._gil_admit(thread, ready_time)):
                continue
            core_free, core_id = heapq.heappop(self._cores)
            start = max(ready_time, core_free)
            self.now = start
            end = self._advance(thread, start)
            self.makespan = max(self.makespan, end)
            if end > start:
                self._occupy(core_id, thread, start, end)
            elif gil is not None:
                # under a GIL only interpreter work takes a core: a
                # visit that ran none leaves its core as it found it
                end = core_free
            heapq.heappush(self._cores, (end, core_id))
        blocked = [t for t in self.threads if t.state == "blocked"]
        if blocked:
            raise self._deadlock_error(blocked)
        self._ran = True
        return self.makespan

    #: zero-cost events one thread may run back-to-back (runaway guard)
    MAX_ZERO_COST_RUN = 1_000_000

    def _advance(self, thread: SimThread, start: float) -> float:
        """Run ``thread`` from ``start`` until it charges cycles, blocks
        or finishes; returns the time its core becomes free. ``Work``
        runs in quantum-sized slices, which is one piece without a GIL."""
        zero_cost_run = 0
        while thread.work_left <= 0:
            if zero_cost_run > self.MAX_ZERO_COST_RUN:
                raise ConcurrencyError(
                    f"{thread.name} ran {zero_cost_run} zero-cost events "
                    "without blocking or working (infinite loop?)")
            zero_cost_run += 1
            try:
                event = next(thread.gen)
            except StopIteration:
                self._finish(thread, start)
                return start
            end = self._handle(thread, event, start)
            if end is None:
                return start          # blocked: core released immediately
            if end > start:
                self._quantum_left -= end - start
                return self._charge(thread, start, end)
        dur = min(thread.work_left, self._quantum_left)
        thread.work_left -= dur
        self._quantum_left -= dur
        if self.gil is not None:
            self.gil_stats.slices += 1
        return self._charge(thread, start, start + dur)

    def _charge(self, thread: SimThread, start: float, end: float) -> float:
        """Bill ``[start, end)`` to ``thread``; it runs again at ``end``."""
        thread.busy_cycles += end - start
        self.total_work_cycles += end - start
        self._schedule(thread, end)
        return end

    def _occupy(self, core_id: int, thread: SimThread, start: float,
                end: float) -> None:
        """Record ``thread`` running on ``core_id`` over ``[start, end)``."""
        self.timeline.append((core_id, thread.name, start, end))
        if self.recorder.enabled:
            # the gantt segment (the span handle is resolved once per
            # core × thread)
            key = (core_id, thread.name)
            series = self._gantt_series.get(key)
            if series is None:
                series = self.recorder.span_series(
                    thread.name, pid="threads",
                    tid=f"core {core_id}", cat="threads")
                self._gantt_series[key] = series
            series.add(start, end - start)

    def _handle(self, thread: SimThread, event: Event,
                time: float) -> float | None:
        """Returns the completion time, or None if the thread blocked."""
        if isinstance(event, Work):
            if event.io:
                return self._io_wait(thread, event.cycles, time)
            thread.work_left = event.cycles   # _advance runs it in slices
            return time
        if isinstance(event, IoWait):
            return self._io_wait(thread, event.cycles, time)
        if isinstance(event, Access):
            if self.race_detector is not None:
                self.race_detector.record(
                    thread, event.var, event.kind,
                    frozenset(thread.locks_held), time)
            return time
        if isinstance(event, AtomicOp):
            event.action()   # indivisible: no other event interleaves
            if self.race_detector is not None:
                token = self._atomic_tokens.setdefault(
                    event.var, Mutex(f"atomic:{event.var}"))
                self.race_detector.record(
                    thread, event.var, "write",
                    frozenset(thread.locks_held) | {token}, time)
            return time + event.cycles
        if isinstance(event, Lock):
            return self._lock(thread, event.mutex, time)
        if isinstance(event, Unlock):
            return self._unlock(thread, event.mutex, time)
        if isinstance(event, BarrierWait):
            return self._barrier(thread, event.barrier, time)
        if isinstance(event, CondWait):
            return self._cond_wait(thread, event.cond, event.mutex, time)
        if isinstance(event, CondSignal):
            return self._cond_signal(event.cond, time, broadcast=False)
        if isinstance(event, CondBroadcast):
            return self._cond_signal(event.cond, time, broadcast=True)
        if isinstance(event, SemWait):
            return self._sem_wait(thread, event.sem, time)
        if isinstance(event, SemPost):
            return self._sem_post(thread, event.sem, time)
        if isinstance(event, Join):
            return self._join(thread, event.thread, time)
        raise ConcurrencyError(f"thread yielded unknown event {event!r}")

    # -- event semantics ---------------------------------------------------------

    def _block(self, thread: SimThread, on: object, time: float) -> None:
        thread.state = "blocked"
        thread.waiting_on = on
        thread.block_start = time
        self._gil_release(thread, time)

    def _wake(self, thread: SimThread, time: float) -> None:
        thread.blocked_cycles += time - thread.block_start
        if self.recorder.enabled:
            # the blocked interval, on the thread's own track
            self.recorder.complete(
                "blocked", ts=thread.block_start,
                dur=time - thread.block_start, pid="threads",
                tid=thread.name, cat="threads",
                args={"on": repr(thread.waiting_on)})
        thread.state = "ready"
        thread.waiting_on = None
        self._schedule(thread, time)

    def _io_wait(self, thread: SimThread, cycles: float,
                 time: float) -> None:
        """Blocking I/O: the thread sleeps in the kernel until
        ``time + cycles``, occupying no core and not holding the GIL —
        any number of I/O operations overlap. Returns None (the core is
        released); the thread re-enters the ready queue at completion."""
        thread.io_cycles += cycles
        self.gil_stats.io_cycles += cycles
        if self.recorder.enabled:
            self.recorder.complete(
                "io-wait", ts=time, dur=cycles, pid="threads",
                tid=thread.name, cat="threads")
        self._gil_release(thread, time)
        self._schedule(thread, time + cycles)
        return None

    def _lock(self, thread: SimThread, mutex: Mutex,
              time: float) -> float | None:
        if mutex.owner is thread:
            raise SyncUsageError(
                f"{thread.name} re-locking {mutex.name} (self-deadlock)")
        done = time + self.costs.lock
        if mutex.owner is None:
            mutex.owner = thread
            mutex.acquisitions += 1
            thread.locks_held.add(mutex)
            if self.recorder.enabled:
                self.recorder.instant(
                    "lock-acquire", ts=done, pid="threads",
                    tid=thread.name, cat="threads",
                    args={"mutex": mutex.name})
            return done
        mutex.waiters.append((thread, time))
        self._block(thread, mutex, time)
        return None

    def _unlock(self, thread: SimThread, mutex: Mutex,
                time: float) -> float:
        if mutex.owner is not thread:
            raise SyncUsageError(
                f"{thread.name} unlocking {mutex.name} it does not hold")
        done = time + self.costs.unlock
        thread.locks_held.discard(mutex)
        if self.recorder.enabled:
            self.recorder.instant(
                "lock-release", ts=done, pid="threads", tid=thread.name,
                cat="threads", args={"mutex": mutex.name})
        if mutex.waiters:
            next_owner, since = mutex.waiters.popleft()
            mutex.owner = next_owner
            mutex.acquisitions += 1
            next_owner.locks_held.add(mutex)
            mutex.contention_cycles += done - since
            if self.recorder.enabled:
                self.recorder.instant(
                    "lock-acquire", ts=done, pid="threads",
                    tid=next_owner.name, cat="threads",
                    args={"mutex": mutex.name, "contended": True})
            self._wake(next_owner, done)
        else:
            mutex.owner = None
        return done

    def _barrier(self, thread: SimThread, barrier: Barrier,
                 time: float) -> float | None:
        barrier.arrived.append(thread)
        if len(barrier.arrived) < barrier.parties:
            self._block(thread, barrier, time)
            return None
        # last arrival: release everyone
        barrier.generation += 1
        release = time + self.costs.barrier
        if self.race_detector is not None:
            self.race_detector.barrier_released(
                barrier, list(barrier.arrived), barrier.generation)
        for waiter in barrier.arrived:
            if waiter is not thread:
                self._wake(waiter, release)
        barrier.arrived.clear()
        return release

    def _cond_wait(self, thread: SimThread, cond: ConditionVariable,
                   mutex: Mutex, time: float) -> None:
        if mutex.owner is not thread:
            raise SyncUsageError(
                f"{thread.name} waiting on {cond.name} without holding "
                f"{mutex.name}")
        release = self._unlock(thread, mutex, time)
        cond.waiters.append((thread, mutex))
        self._block(thread, cond, release)
        return None

    def _cond_signal(self, cond: ConditionVariable, time: float,
                     *, broadcast: bool) -> float:
        done = time + self.costs.cond
        cond.signals_sent += 1
        to_wake = list(cond.waiters) if broadcast else (
            [cond.waiters[0]] if cond.waiters else [])
        for thread, mutex in to_wake:
            cond.waiters.remove((thread, mutex))
            # Mesa semantics: the waiter must re-acquire the mutex, and
            # contends for it from the signal on (it stays blocked from
            # the start of its condition wait)
            if mutex.owner is None:
                mutex.owner = thread
                mutex.acquisitions += 1
                thread.locks_held.add(mutex)
                self._wake(thread, done + self.costs.lock)
            else:
                thread.waiting_on = mutex
                mutex.waiters.append((thread, done))
        return done

    def _sem_wait(self, thread: SimThread, sem: Semaphore,
                  time: float) -> float | None:
        done = time + self.costs.sem
        if sem.value > 0:
            sem.value -= 1
            sem.holders.append(thread)
            return done
        sem.waiters.append(thread)
        self._block(thread, sem, time)
        return None

    def _sem_post(self, thread: SimThread, sem: Semaphore,
                  time: float) -> float:
        done = time + self.costs.sem
        # a holder posting returns its unit (binary-sem-as-lock usage);
        # a non-holder post (producer/consumer) mints a fresh unit
        if thread in sem.holders:
            sem.holders.remove(thread)
        if sem.waiters:
            waiter: SimThread = sem.waiters.popleft()
            sem.holders.append(waiter)
            self._wake(waiter, done)
        else:
            sem.value += 1
        return done

    def _join(self, thread: SimThread, target: SimThread,
              time: float) -> float | None:
        if target is thread:
            raise SyncUsageError(f"{thread.name} joining itself")
        if target.state == "done":
            if self.race_detector is not None:
                self.race_detector.joined(thread, target)
            return time
        target.joiners.append(thread)
        self._block(thread, target, time)
        return None

    def _finish(self, thread: SimThread, time: float) -> None:
        thread.state = "done"
        thread.finish_time = time
        if thread.locks_held:
            held = ", ".join(m.name for m in thread.locks_held)
            raise SyncUsageError(
                f"{thread.name} finished while holding: {held}")
        if self.race_detector is not None:
            self.race_detector.thread_finished(thread, time)
            for joiner in thread.joiners:
                self.race_detector.joined(joiner, thread)
        for joiner in thread.joiners:
            self._wake(joiner, time)
        thread.joiners.clear()
        self._gil_release(thread, time)

    # -- the GIL --------------------------------------------------------------------
    #
    # The lock is FIFO and adds three things to the shared loop: an
    # admission check when a thread is popped, the switch-interval
    # quantum that slices Work, and a release when the holder blocks,
    # starts I/O or finishes. Without a GIL every thread is admitted,
    # the quantum is infinite and releasing does nothing.

    def _gil_admit(self, thread: SimThread, ready_time: float) -> bool:
        """Under a GIL, may ``thread`` run at ``ready_time``? A non-holder
        is granted the free lock (and runs once it has paid
        ``acquire_cost``) or queues for it; a holder with a spent quantum
        hands the lock to the longest waiter, or gets a fresh quantum if
        nobody waits."""
        if thread is not self._gil_holder:
            if self._gil_holder is None:
                at = max(ready_time, self._gil_free_at)
                self.gil_stats.wait_cycles += at - ready_time
                self._gil_grant(thread, at)
            else:
                thread.gil_wait_start = ready_time
                self._gil_queue.append(thread)
            return False
        if self._quantum_left <= 0:
            if self._gil_queue:
                self.gil_stats.handoffs += 1
                self._gil_release(thread, ready_time, requeue=True)
                return False
            self._quantum_left = self.gil.switch_interval_cycles
        return True

    def _gil_grant(self, thread: SimThread, at: float) -> None:
        """Give ``thread`` the lock at ``at``; it runs after paying
        ``acquire_cost`` cycles."""
        self._gil_holder = thread
        self._quantum_left = self.gil.switch_interval_cycles
        self.gil_stats.acquisitions += 1
        start = at + self.gil.acquire_cost
        self._gil_acquired_at = start
        self._schedule(thread, start)

    def _gil_release(self, thread: SimThread, time: float, *,
                     requeue: bool = False) -> None:
        """The holder gives the lock up at ``time``. With ``requeue``
        (a switch-interval handoff) it rejoins the wait queue at the
        tail; either way the longest-waiting thread is granted next."""
        if self.gil is None:
            return
        held = time - self._gil_acquired_at
        self.gil_stats.hold_cycles += held
        if self.recorder.enabled and held > 0:
            # the holder span: who had the interpreter, when
            self.recorder.complete(
                thread.name, ts=self._gil_acquired_at, dur=held,
                pid="threads", tid="GIL", cat="gil")
        self._gil_holder = None
        self._gil_free_at = time
        if requeue:
            thread.gil_wait_start = time
            self._gil_queue.append(thread)
        if self._gil_queue:
            nxt = self._gil_queue.popleft()
            self.gil_stats.wait_cycles += time - nxt.gil_wait_start
            if self.recorder.enabled:
                self.recorder.instant(
                    "gil-handoff", ts=time, pid="threads", tid="GIL",
                    cat="gil", args={"from": thread.name,
                                     "to": nxt.name})
            self._gil_grant(nxt, time)

    # -- deadlock reporting ----------------------------------------------------------

    def _deadlock_error(self, blocked: list[SimThread]) -> DeadlockError:
        from repro.core.deadlock import WaitForGraph
        graph = WaitForGraph.from_threads(blocked)
        cycle = graph.find_cycle()
        lines = ["no runnable threads but some are blocked:"]
        for t in blocked:
            lines.append(f"  {t.name} waiting on {t.waiting_on!r}")
        if cycle:
            lines.append("wait-for cycle: " + " -> ".join(cycle))
        return DeadlockError("\n".join(lines))

    # -- metrics -----------------------------------------------------------------------

    @property
    def serial_cycles(self) -> float:
        """Total busy cycles — what one core would need (plus nothing)."""
        return self.total_work_cycles

    def speedup_vs_serial(self) -> float:
        """serial cycles / parallel makespan, the §III-A measurement.

        A machine that ran but finished at makespan 0 (all events were
        zero-cost) gets the degenerate speedup 1.0 — serial execution
        would also take zero cycles. Only a machine that never ran
        raises.
        """
        if not self._ran:
            raise ConcurrencyError("run() the machine first")
        if self.makespan == 0:
            return 1.0
        return self.total_work_cycles / self.makespan

    def utilization(self) -> float:
        """Busy fraction of all core-cycles within the makespan.

        Raises for a machine that never ran (mirroring
        :meth:`speedup_vs_serial`); a ran machine with makespan 0 did
        no work in no time, reported as 0.0.
        """
        if not self._ran:
            raise ConcurrencyError("run() the machine first")
        if self.makespan == 0:
            return 0.0
        return self.total_work_cycles / (self.num_cores * self.makespan)


def run_threads(bodies: Iterable[tuple[ThreadBody, tuple]], *,
                num_cores: int, costs: SyncCosts | None = None,
                gil: GilConfig | None = None) -> SimMachine:
    """Convenience: spawn each (body, args) pair, run, return the machine."""
    machine = SimMachine(num_cores, costs=costs, gil=gil)
    for body, args in bodies:
        machine.spawn(body, *args)
    machine.run()
    return machine
