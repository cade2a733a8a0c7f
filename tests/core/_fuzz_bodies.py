"""Deterministic fuzzed thread programs for the SimMachine oracles.

Each seed expands into a complete, deadlock-free thread program: a
thread count, a core count, sync costs, and one action script per
thread. Scripts are generated *up front* (the bodies are pure replays),
every cycle cost is an integer-valued float (exact arithmetic), and the
constructs are chosen so the program always terminates:

* lock/unlock and sem_wait/sem_post are emitted as complete pairs and
  never cross-nested, so no hold-and-wait cycles exist;
* every thread passes the shared barrier the same number of times;
* joins only target lower thread ids, so the join graph is acyclic.

The fingerprint digests everything the scheduler decides — the
(core, thread, start, end) timeline and per-thread state, finish,
busy and blocked accounting — so any change to event ordering, float
arithmetic, or tie-breaking shows up. (Mutex contention is not part of
it; neither is anything the GIL counts — :func:`gil_digest` adds that.)

:data:`GRID` crosses the seeds with the machine models: no GIL and four
:class:`GilConfig` shapes, each with and without two extra I/O threads
spawned by :func:`spawn_io_threads` from their own RNG, so
:func:`build_program`'s stream (and every seed golden) is untouched.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from repro.core.machine import (
    Access,
    BarrierWait,
    GilConfig,
    IoWait,
    Join,
    Lock,
    SemPost,
    SemWait,
    SimMachine,
    SyncCosts,
    Unlock,
    Work,
)
from repro.core.sync import Barrier, Mutex, Semaphore

#: fuzz seeds the oracle pins (golden digests generated from the seed
#: repo state — see tests/core/test_gil_oracle.py)
ORACLE_SEEDS = list(range(24))

#: the machine models the grid crosses the seeds with
MODELS: dict[str, GilConfig | None] = {
    "none": None,
    "default": GilConfig(),
    "37/0": GilConfig(switch_interval_cycles=37, acquire_cost=0),
    "1000/12": GilConfig(switch_interval_cycles=1000, acquire_cost=12),
    "1/3": GilConfig(switch_interval_cycles=1, acquire_cost=3),
}

#: (seed, model name, with I/O threads) — 24 × 5 × 2 configurations
GRID = list(itertools.product(ORACLE_SEEDS, MODELS, (False, True)))


def build_program(seed: int):
    """Expand ``seed`` into (n_threads, cores, costs, make_spawner).

    ``make_spawner(machine)`` spawns every thread on ``machine``; sync
    objects are created fresh per call so a program can be replayed on
    several machines.
    """
    rng = random.Random(seed)
    n_threads = rng.randint(2, 5)
    cores = rng.randint(1, 4)
    costs = SyncCosts(lock=float(rng.choice([0, 5, 10])),
                      unlock=float(rng.choice([0, 5])),
                      barrier=float(rng.choice([0, 25, 50])),
                      cond=10.0,
                      sem=float(rng.choice([0, 10])),
                      spawn=float(rng.choice([0, 100])))
    barrier_rounds = rng.randint(0, 3)

    scripts: list[list[tuple]] = []
    for tid in range(n_threads):
        script: list[tuple] = []
        for round_no in range(barrier_rounds + 1):
            for _ in range(rng.randint(0, 6)):
                kind = rng.randrange(5)
                if kind == 0:
                    script.append(("work", float(rng.randint(0, 300))))
                elif kind == 1:
                    script.append(("access", rng.choice(["x", "y"]),
                                   rng.choice(["read", "write"])))
                elif kind == 2:
                    script.append(("lock",))
                    script.append(("work", float(rng.randint(0, 50))))
                    script.append(("unlock",))
                elif kind == 3:
                    script.append(("sem_wait",))
                    script.append(("work", float(rng.randint(0, 50))))
                    script.append(("sem_post",))
                else:
                    script.append(("work", 0.0))
            if round_no < barrier_rounds:
                script.append(("barrier",))
        if tid > 0 and rng.random() < 0.4:
            script.append(("join", rng.randrange(tid)))
        scripts.append(script)

    def make_spawner(machine: SimMachine) -> list:
        mutex = Mutex("m")
        barrier = Barrier(n_threads, name="b")
        # value < n_threads so semaphore waits genuinely block sometimes
        sem = Semaphore(max(1, n_threads - 1), name="s")
        threads: list = []

        def body(script):
            for action in script:
                if action[0] == "work":
                    yield Work(action[1])
                elif action[0] == "access":
                    yield Access(action[1], action[2])
                elif action[0] == "lock":
                    yield Lock(mutex)
                elif action[0] == "unlock":
                    yield Unlock(mutex)
                elif action[0] == "sem_wait":
                    yield SemWait(sem)
                elif action[0] == "sem_post":
                    yield SemPost(sem)
                elif action[0] == "barrier":
                    yield BarrierWait(barrier)
                elif action[0] == "join":
                    yield Join(threads[action[1]])

        for i, script in enumerate(scripts):
            threads.append(machine.spawn(body, script, name=f"fuzz-{i}"))
        return threads

    return n_threads, cores, costs, make_spawner


def spawn_io_threads(machine: SimMachine, seed: int) -> None:
    """Spawn two I/O-bound threads mixing :class:`IoWait`, ``Work(io=True)``
    and short interpreter work, drawn from an RNG of their own."""
    rng = random.Random(f"io-{seed}")
    scripts = []
    for _ in range(2):
        script: list = []
        for _ in range(rng.randint(1, 5)):
            script.append(Work(float(rng.randint(0, 120))))
            wait = float(rng.randint(0, 400))
            script.append(IoWait(wait) if rng.random() < 0.5
                          else Work(wait, io=True))
        scripts.append(script)

    def body(script):
        yield from script

    for i, script in enumerate(scripts):
        machine.spawn(body, script, name=f"io-{i}")


def fingerprint(machine: SimMachine) -> str:
    """SHA-256 digest of every scheduling decision the machine made."""
    parts = [repr(machine.makespan), repr(machine.total_work_cycles)]
    for seg in machine.timeline:
        parts.append(repr(seg))
    for t in machine.threads:
        parts.append(f"{t.tid}|{t.name}|{t.state}|{t.finish_time!r}"
                     f"|{t.busy_cycles!r}|{t.blocked_cycles!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def gil_digest(machine: SimMachine, recorder=None) -> str:
    """SHA-256 of :func:`fingerprint`, every :class:`GilStats` field,
    each thread's I/O cycles and, given a recorder, its Chrome trace."""
    stats = machine.gil_stats
    parts = [fingerprint(machine),
             repr((stats.acquisitions, stats.handoffs, stats.slices,
                   stats.hold_cycles, stats.wait_cycles, stats.io_cycles))]
    parts.extend(repr(t.io_cycles) for t in machine.threads)
    if recorder is not None:
        from repro.obs.chrome import to_chrome
        parts.append(json.dumps(to_chrome(recorder), sort_keys=True))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def run_fuzzed(seed: int, *, io: bool = False,
               **machine_kwargs) -> SimMachine:
    """Build and run the fuzzed program for ``seed`` (plus the two
    I/O threads when ``io``); returns the machine."""
    n_threads, cores, costs, make_spawner = build_program(seed)
    machine = SimMachine(cores, costs=costs, **machine_kwargs)
    make_spawner(machine)
    if io:
        spawn_io_threads(machine, seed)
    machine.run()
    return machine
