"""Lab 10: parallel Game of Life with pthreads-style threads.

"Students extend their lab 6 simulation to execute on multiple threads
in parallel using pthreads. Their solutions must partition the game grid
vertically or horizontally ... They use barriers to synchronize threads
between rounds and a mutex to protect shared state." (§III-B)

:class:`ParallelLife` is that program on the simulated machine: each
thread owns a strip of the grid, pays cycles proportional to its cells,
computes its strip into the next buffer, and meets the others at two
barriers per round (compute-done, swap-done). A mutex protects the
shared population counter. Knobs exist to *remove* the barrier (the
race-condition demo) and to vary lock granularity (bench E9's ablation).

Two real-parallel engines run the same partitioned computation for
wall-clock measurements (bench E3): a shared-memory one and one on any
executor backend.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Literal

import numpy as np

from repro.core.machine import (
    Access,
    BarrierWait,
    GilConfig,
    Lock,
    SimMachine,
    SyncCosts,
    Unlock,
    Work,
)
from repro.core.partition import GridRegion, partition_grid
from repro.core.sync import Barrier, Mutex
from repro.errors import ReproError
from repro.life.serial import EdgeMode, neighbor_counts, step, step_band

#: simulated cycles to compute one cell for one round
CELL_CYCLES = 1.0

StatLocking = Literal["none", "per-round", "per-row"]


def step_region(grid: np.ndarray, out: np.ndarray, region: GridRegion,
                mode: EdgeMode = "torus") -> int:
    """Compute one round for ``region`` into ``out``; returns live count.

    Reads the whole ``grid`` (neighbours cross region boundaries) but
    writes only its own cells — the Lab 10 kernel.
    """
    counts = neighbor_counts(grid, mode)[region.row_start:region.row_end,
                                         region.col_start:region.col_end]
    band = grid[region.row_start:region.row_end,
                region.col_start:region.col_end]
    result = (((band == 0) & (counts == 3))
              | ((band == 1) & ((counts == 2) | (counts == 3)))
              ).astype(np.uint8)
    out[region.row_start:region.row_end,
        region.col_start:region.col_end] = result
    return int(result.sum())


@dataclass
class RoundStats:
    """Shared state the mutex protects (population per round)."""
    population: int = 0


class ParallelLife:
    """The Lab 10 program, parameterised for the paper's experiments."""

    def __init__(self, grid: np.ndarray, *, threads: int,
                 num_cores: int | None = None,
                 orientation: str = "row",
                 mode: EdgeMode = "torus",
                 use_barrier: bool = True,
                 stat_locking: StatLocking = "per-round",
                 sync_costs: SyncCosts | None = None,
                 gil: GilConfig | None = None,
                 race_detector=None) -> None:
        if threads < 1:
            raise ReproError("need at least one thread")
        if stat_locking not in ("none", "per-round", "per-row"):
            raise ReproError(f"unknown stat locking {stat_locking!r}")
        self.current = grid.astype(np.uint8).copy()
        self.next = np.zeros_like(self.current)
        self.threads = threads
        self.mode: EdgeMode = mode
        self.use_barrier = use_barrier
        self.stat_locking: StatLocking = stat_locking
        self.regions = partition_grid(grid.shape[0], grid.shape[1],
                                      threads, orientation)
        # gil=GilConfig(...) runs the same program under the simulated
        # interpreter lock — the E19 ablation's "what if Lab 10 were
        # written in GIL-ful Python" arm; gil=None is the pthreads model
        self.machine = SimMachine(num_cores or threads,
                                  costs=sync_costs, gil=gil,
                                  race_detector=race_detector)
        self.barrier = Barrier(threads, name="round-barrier")
        self.stats_mutex = Mutex("stats.mutex")
        self.round_populations: list[int] = []
        self._round_stats = RoundStats()

    # -- the thread body ---------------------------------------------------------

    def _worker(self, index: int, region: GridRegion, rounds: int):
        leader = index == 0
        for _ in range(rounds):
            # compute my strip (cycles proportional to my cells)
            yield Work(region.cell_count * CELL_CYCLES)
            yield Access("grid", "read")
            live = step_region(self.current, self.next, region, self.mode)
            # each thread writes a disjoint strip: model as distinct vars
            yield Access(f"next-grid[{index}]", "write")

            # update the shared population under the chosen locking
            if self.stat_locking == "per-round":
                yield Lock(self.stats_mutex)
                self._round_stats.population += live
                yield Access("round-stats", "write")
                yield Unlock(self.stats_mutex)
            elif self.stat_locking == "per-row":
                rows = region.row_end - region.row_start
                per_row = live / max(1, rows)
                for _row in range(rows):
                    yield Lock(self.stats_mutex)
                    self._round_stats.population += per_row
                    yield Access("round-stats", "write")
                    yield Unlock(self.stats_mutex)

            if self.use_barrier:
                yield BarrierWait(self.barrier)     # everyone computed
            if leader:
                self.current, self.next = self.next, self.current
                if self.stat_locking == "none":
                    self._round_stats.population = int(self.current.sum())
                self.round_populations.append(
                    int(round(self._round_stats.population)))
                self._round_stats.population = 0
                yield Access("grid", "write")
            if self.use_barrier:
                yield BarrierWait(self.barrier)     # swap visible to all

    # -- driving --------------------------------------------------------------------

    def run(self, rounds: int) -> np.ndarray:
        """Run ``rounds`` with ``threads`` threads; returns the final grid."""
        if rounds < 0:
            raise ReproError("rounds cannot be negative")
        for i, region in enumerate(self.regions):
            self.machine.spawn(self._worker, i, region, rounds,
                               name=f"life-{i}")
        self.machine.run()
        return self.current

    @property
    def makespan(self) -> float:
        return self.machine.makespan


def run_serial_cycles(grid: np.ndarray, rounds: int) -> float:
    """Simulated cycles a one-thread run takes (the speedup baseline)."""
    return float(grid.size) * CELL_CYCLES * rounds


def simulated_scaling(grid: np.ndarray, rounds: int,
                      thread_counts: list[int], *,
                      orientation: str = "row",
                      sync_costs: SyncCosts | None = None,
                      gil: GilConfig | None = None
                      ) -> dict[int, float]:
    """Makespan at each thread count (cores == threads, the lab setup).

    Pass ``gil=GilConfig(...)`` for the interpreter-lock arm of the E19
    ablation: the same curve flattens at ~1× because only one thread
    computes at a time.
    """
    times: dict[int, float] = {}
    for k in thread_counts:
        game = ParallelLife(grid, threads=k, orientation=orientation,
                            sync_costs=sync_costs, gil=gil)
        game.run(rounds)
        times[k] = game.makespan
    return times


# ---------------------------------------------------------------------------
# Real parallelism: two engines for the same row-partitioned computation
# ---------------------------------------------------------------------------
#
# * :func:`run_parallel_backend` — the naive port: an executor backend
#   maps over bands each generation. On ``process`` workers that
#   re-pickles the full grid to every worker every generation, so its
#   speedup is dominated by serialization (E3's "pickled" arm).
# * :func:`run_parallel_shm` — zero-copy: two grid-sized buffers live in
#   ``multiprocessing.shared_memory``; workers attach numpy views once
#   and step their row strips in place for all generations, alternating
#   which buffer is "current" by round parity and meeting at two
#   barriers per round (compute-done, swap-visible — mirroring the
#   simulated engine). Nothing grid-sized crosses a process boundary
#   after startup.

#: generous ceilings so a hung (not dead) worker turns into an error
_BARRIER_TIMEOUT = 300.0
_JOIN_TIMEOUT = 600.0


def _run_serial(grid: np.ndarray, rounds: int, mode: EdgeMode) -> np.ndarray:
    current = grid.astype(np.uint8).copy()
    for _ in range(rounds):
        current = step(current, mode)
    return current


def _mp_band(args: tuple) -> tuple[int, np.ndarray]:
    grid, row_start, row_end, mode = args
    counts = neighbor_counts(grid, mode)[row_start:row_end]
    band = grid[row_start:row_end]
    result = (((band == 0) & (counts == 3))
              | ((band == 1) & ((counts == 2) | (counts == 3)))
              ).astype(np.uint8)
    return row_start, result


# Top-level so it works under the "spawn" start method too.
def _shm_worker(names: tuple[str, str], shape: tuple[int, int],
                row_start: int, row_end: int, rounds: int,
                mode: EdgeMode, barrier) -> None:
    shm_a = shared_memory.SharedMemory(name=names[0])
    shm_b = shared_memory.SharedMemory(name=names[1])
    try:
        _shm_step_rounds(shm_a.buf, shm_b.buf, shape, row_start, row_end,
                         rounds, mode, barrier)
    finally:
        # the numpy views are scoped to the helper, so the buffers have
        # no exported pointers left and close() cannot raise BufferError
        shm_a.close()
        shm_b.close()


def _shm_step_rounds(buf_a, buf_b, shape, row_start, row_end, rounds,
                     mode, barrier) -> None:
    buffers = (np.ndarray(shape, dtype=np.uint8, buffer=buf_a),
               np.ndarray(shape, dtype=np.uint8, buffer=buf_b))
    for r in range(rounds):
        current = buffers[r % 2]
        nxt = buffers[(r + 1) % 2]
        step_band(current, nxt, row_start, row_end, mode)
        # two syncs per round, mirroring the simulated engine: after the
        # first, every strip of ``nxt`` is written; the second marks the
        # role swap (here just round parity) visible to everyone
        barrier.wait(_BARRIER_TIMEOUT)   # everyone computed
        barrier.wait(_BARRIER_TIMEOUT)   # swap visible to all


def _join_shm_workers(procs: list, bands: list[GridRegion], barrier) -> None:
    """Wait for every worker; fail fast on the first that dies.

    Waits on all process sentinels at once, so a dead worker is seen as
    soon as it exits, whichever band it owns. Its siblings are then
    blocked at a barrier that can never fill: aborting it makes their
    ``wait`` raise at once instead of sitting out the timeout.
    """
    from multiprocessing.connection import wait
    pending = {p.sentinel: (p, b) for p, b in zip(procs, bands)}
    deadline = time.monotonic() + _JOIN_TIMEOUT
    while pending:
        ready = wait(list(pending),
                     timeout=max(0.0, deadline - time.monotonic()))
        if not ready:
            barrier.abort()
            raise ReproError(f"shared-memory life workers still running "
                             f"after {_JOIN_TIMEOUT:.0f} s")
        for sentinel in ready:
            p, b = pending.pop(sentinel)
            p.join()
            if p.exitcode != 0:
                barrier.abort()
                raise ReproError(
                    f"shared-memory life worker {p.name} (rows "
                    f"{b.row_start}-{b.row_end}) exited with code "
                    f"{p.exitcode}")


def run_parallel_shm(grid: np.ndarray, rounds: int, *,
                     workers: int, mode: EdgeMode = "torus") -> np.ndarray:
    """Zero-copy rounds: workers step shared-memory strips in place.

    Double-buffered grids in :mod:`multiprocessing.shared_memory`;
    each worker attaches once, then runs all generations over its rows
    with the O(band) :func:`~repro.life.serial.step_band` kernel and two
    barrier syncs per round. No per-generation pickling at all.

    The parent owns both segments and always ``close()``es and
    ``unlink()``s them, even on worker failure; a worker that dies
    raises :class:`~repro.errors.ReproError` naming its band as soon as
    it exits. Bit-identical to the serial engine (asserted by tests
    against every library pattern).
    """
    if workers < 1:
        raise ReproError("need at least one worker")
    if rounds < 0:
        raise ReproError("rounds cannot be negative")
    if mode not in ("torus", "bounded"):
        # fail fast in the parent, before any worker or segment exists
        raise ReproError(f"unknown edge mode {mode!r}")
    seed = grid.astype(np.uint8)
    if rounds == 0:
        return seed.copy()
    bands = [b for b in partition_grid(grid.shape[0], grid.shape[1],
                                       workers, "row")
             if b.row_end > b.row_start]
    if workers == 1 or len(bands) == 1:
        return _run_serial(seed, rounds, mode)

    ctx = mp.get_context()
    barrier = ctx.Barrier(len(bands))
    shm_a = shared_memory.SharedMemory(create=True, size=seed.nbytes)
    shm_b = shared_memory.SharedMemory(create=True, size=seed.nbytes)
    procs: list = []
    buffers: tuple | None = None
    try:
        buffers = (np.ndarray(seed.shape, dtype=np.uint8, buffer=shm_a.buf),
                   np.ndarray(seed.shape, dtype=np.uint8, buffer=shm_b.buf))
        buffers[0][:] = seed
        buffers[1][:] = 0
        for i, b in enumerate(bands):
            p = ctx.Process(target=_shm_worker,
                            args=((shm_a.name, shm_b.name), seed.shape,
                                  b.row_start, b.row_end, rounds, mode,
                                  barrier),
                            name=f"life-shm-{i}")
            p.start()
            procs.append(p)
        _join_shm_workers(procs, bands, barrier)
        return buffers[rounds % 2].copy()
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
            p.join()
        # drop the numpy views before close(): a buffer with exported
        # pointers cannot be unmapped
        buffers = None
        shm_a.close()
        shm_a.unlink()
        shm_b.close()
        shm_b.unlink()


def run_parallel_backend(grid: np.ndarray, rounds: int, *,
                         workers: int, backend: str = "process",
                         mode: EdgeMode = "torus") -> np.ndarray:
    """Row-partitioned rounds on a named executor backend.

    Each generation maps the band computation over a
    :class:`~repro.core.mp_backend.WorkerPool` of kind ``backend`` —
    ``serial`` / ``thread`` / ``process`` — so E3 and E19 can put the
    identical workload on each. The ``process`` arm re-pickles the grid
    to every worker every generation: the overhead the shared-memory
    engine removes. The ``thread`` arm shares the grid by reference (no
    pickling), yet on a GIL-ful build still shows speedup ≈ 1 for this
    CPU-bound kernel: that contrast with ``process`` is the measured
    counterpart of the simulated-GIL ablation.
    """
    from repro.core.backends import get_backend
    if workers < 1:
        raise ReproError("need at least one worker")
    if rounds < 0:
        raise ReproError("rounds cannot be negative")
    current = grid.astype(np.uint8).copy()
    if rounds == 0:
        return current
    bands = [b for b in partition_grid(grid.shape[0], grid.shape[1],
                                       workers, "row")
             if b.row_end > b.row_start]
    with get_backend(backend, workers) as chosen:
        for _ in range(rounds):
            tasks = [(current, b.row_start, b.row_end, mode)
                     for b in bands]
            out = np.zeros_like(current)
            for row_start, result in chosen.map(_mp_band, tasks):
                out[row_start:row_start + result.shape[0]] = result
            current = out
    return current
