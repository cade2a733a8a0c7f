"""Real parallelism: one chunked executor for threads and processes.

CPython's GIL means ``threading`` cannot speed up CPU-bound work, so the
library's *real* parallel backend uses processes — the standard Python
counterpart to the pthreads programs the course writes in C. The
simulated machine (:mod:`repro.core.machine`) carries the deterministic
speedup experiments; this backend exists so the same partitioned
workloads can run with actual OS-level parallelism on multicore hosts,
and so measured wall-clock numbers can be reported alongside simulated
ones (benches E3, E12 and E19 do both).

:class:`WorkerPool` is that executor. Its ``kind`` picks the workers:

``serial``
    A plain loop in the caller — the speedup-1.0 baseline.
``thread``
    ``concurrent.futures.ThreadPoolExecutor``. Under a stock (GIL-ful)
    CPython build this is the *negative control*: real threads, shared
    memory, and still no CPU-bound speedup. On a free-threading build
    (PEP 703) the same code becomes truly parallel.
``process`` (the default)
    ``concurrent.futures.ProcessPoolExecutor`` — the GIL workaround that
    actually scales on multicore hosts.

The pool is **persistent**: spawning processes costs tens of
milliseconds, so a fresh pool per call buries small workloads in
startup overhead — exactly the pitfall that makes students conclude
"parallelism made it slower". Workers spawn lazily on first use, are
reused warm across calls, and every call records an
:class:`~repro.core.metrics.OverheadBreakdown` (spawn/dispatch/compute/
sync seconds) so benchmarks can report *where* time goes.

Chunk scheduling is pluggable (``block``, ``cyclic``, ``dynamic``,
``guided`` — see :mod:`repro.core.partition`); each chunk is one
submitted task, so idle workers pull the next one and the work-queue
modes help imbalanced loads at the cost of more dispatch.

Measured speedup here is bounded by the host's physical cores; on a
single-core CI machine it will hover near (or below) 1×. That is the
expected, documented behaviour — see EXPERIMENTS.md.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import time
from typing import Callable, Sequence

from repro.core.metrics import OverheadBreakdown
from repro.core.partition import CHUNK_MODES, chunk_indices
from repro.errors import ReproError

#: the executor kinds :class:`WorkerPool` can run on
BACKEND_NAMES = ("serial", "thread", "process")


def available_cores() -> int:
    return os.cpu_count() or 1


# Top-level so process workers can unpickle them.
def _run_chunk(fn: Callable, indices: list[int], items: list) -> tuple:
    t0 = time.perf_counter()
    results = [fn(x) for x in items]
    return indices, results, time.perf_counter() - t0


def _noop() -> None:
    pass


class WorkerPool:
    """A reusable serial, thread or process pool with chunk scheduling.

    Lazy: no workers exist until the first :meth:`map` that needs them.
    Warm: later calls reuse the same workers, so only the first call
    pays spawn cost (``last_breakdown.spawn`` is 0.0 on a warm call).
    Start-method aware: pass ``start_method="spawn"`` (or ``"fork"``/
    ``"forkserver"``) to override the platform default for process
    workers; under *spawn*, mapped functions and items must be
    importable/picklable in a fresh interpreter.

    A process worker that dies, mid-call or between calls, breaks the
    pool: :meth:`map` raises :class:`~repro.errors.ReproError` at once
    and drops the broken workers, so the next call respawns them.

    Call :meth:`shutdown` (or use it as a context manager) when done;
    the module-level default pool (:func:`get_pool`) is shut down at
    interpreter exit automatically.
    """

    def __init__(self, workers: int | None = None, *,
                 kind: str = "process", start_method: str | None = None,
                 recorder=None) -> None:
        from repro.obs.recorder import coalesce
        if kind not in BACKEND_NAMES:
            raise ReproError(f"unknown backend {kind!r}; "
                             f"valid backends: {', '.join(BACKEND_NAMES)}")
        if workers is not None and workers <= 0:
            raise ReproError("workers must be positive")
        self.kind = kind
        if kind == "serial":
            self.workers = 1
        elif workers is None:
            self.workers = available_cores()
        else:
            self.workers = workers
        self._ctx = mp.get_context(start_method)
        self._executor = None
        self.spawn_count = 0            # how many times workers were created
        self.last_breakdown = OverheadBreakdown()
        #: shared trace recorder (see repro.obs); NULL_RECORDER when off
        self.recorder = coalesce(recorder)

    def __repr__(self) -> str:
        return f"WorkerPool(kind={self.kind!r}, workers={self.workers})"

    @property
    def is_alive(self) -> bool:
        return self._executor is not None

    def _ensure_started(self) -> float:
        """Start the workers if needed; returns the spawn seconds paid."""
        if self._executor is not None:
            return 0.0
        t0 = time.perf_counter()
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
        if self.kind == "thread":
            self._executor = ThreadPoolExecutor(max_workers=self.workers)
        else:
            self._executor = ProcessPoolExecutor(max_workers=self.workers,
                                                 mp_context=self._ctx)
            # the executor starts its workers on submit; pay for that
            # here so spawn, not dispatch, carries start-up
            for f in [self._executor.submit(_noop)
                      for _ in range(self.workers)]:
                f.result()
        self.spawn_count += 1
        return time.perf_counter() - t0

    def map(self, fn: Callable, items: Sequence, *,
            chunk_mode: str = "block",
            chunk_size: int | None = None) -> list:
        """Map ``fn`` over ``items`` on the (possibly warm) pool.

        Results keep input order for every chunk mode. The call's
        overhead breakdown lands in :attr:`last_breakdown`.
        """
        if chunk_mode not in CHUNK_MODES:
            raise ReproError(f"unknown chunk mode {chunk_mode!r}; "
                             f"valid modes: {', '.join(CHUNK_MODES)}")
        n = len(items)
        wall0 = time.perf_counter()
        if n == 0:
            self.last_breakdown = OverheadBreakdown()
            return []
        if n == 1 or self.kind == "serial":
            # Deliberate inline path: a serial pool, or one item, never
            # spawns or touches workers (pinned by tests), so the whole
            # call is compute — but it must still announce itself on
            # the mp track, or span-based comparisons (E12/E19)
            # silently lose warm-up calls.
            result = [fn(x) for x in items]
            wall = time.perf_counter() - wall0
            self.last_breakdown = OverheadBreakdown(compute=wall, wall=wall)
            if self.recorder.enabled:
                self.recorder.complete(
                    "inline", ts=self.recorder.now(), dur=wall * 1e6,
                    pid="mp", tid="pool", cat="mp",
                    args={"seconds": wall, "items": n,
                          "chunk_mode": chunk_mode})
            return result
        spawn = self._ensure_started()
        from concurrent.futures import BrokenExecutor

        t0 = time.perf_counter()
        chunks = [c for c in chunk_indices(n, self.workers, chunk_mode,
                                           chunk_size) if c]
        # one task per chunk, so the executor's queue *is* the work
        # queue: idle workers pull the next chunk (dynamic scheduling);
        # for block/cyclic there is exactly one chunk per worker anyway
        futures: list = []
        try:
            # a worker that died while idle breaks the pool before any
            # result is read: submit raises then
            for c in chunks:
                futures.append(self._executor.submit(
                    _run_chunk, fn, c, [items[i] for i in c]))
            dispatch = time.perf_counter() - t0
            t0 = time.perf_counter()
            parts = [f.result() for f in futures]
        except BrokenExecutor as exc:
            self.shutdown()
            raise ReproError(f"{self!r} lost a worker ({exc}); "
                             "the next map respawns the pool") from exc
        except BaseException:
            for f in futures:
                f.cancel()
            raise
        wait = time.perf_counter() - t0

        out: list = [None] * n
        compute = 0.0
        for indices, results, seconds in parts:
            compute += seconds
            for i, r in zip(indices, results):
                out[i] = r
        # the ideal wait is compute spread over the chunks that actually
        # ran, not the pool width: short queues (fewer chunks than
        # workers) can't use every worker, and dividing by self.workers
        # would book that idle width as compute rather than sync
        k = min(self.workers, len(chunks))
        self.last_breakdown = OverheadBreakdown(
            spawn=spawn, dispatch=dispatch, compute=compute,
            sync=max(0.0, wait - compute / k),
            wall=time.perf_counter() - wall0)
        if self.recorder.enabled:
            self._record_map(len(chunks), chunk_mode, spawn, dispatch, wait)
        return out

    def _record_map(self, n_chunks: int, chunk_mode: str,
                    spawn: float, dispatch: float, wait: float) -> None:
        """Emit the call's phases as back-to-back spans on the mp track.

        Wall-clock seconds become microsecond durations (the Chrome
        trace unit) laid out from the recorder's logical clock, so one
        map() call reads as spawn → dispatch → wait in the viewer.
        """
        ts = self.recorder.now()
        phases = [("dispatch", dispatch), ("wait", wait)]
        if spawn:
            phases.insert(0, ("spawn", spawn))
        for name, seconds in phases:
            dur = seconds * 1e6
            self.recorder.complete(
                name, ts=ts, dur=dur, pid="mp", tid="pool", cat="mp",
                args={"seconds": seconds, "workers": self.workers,
                      "chunks": n_chunks, "chunk_mode": chunk_mode})
            ts += dur

    def shutdown(self) -> None:
        """Stop the workers (idempotent). The pool can be restarted —
        the next :meth:`map` lazily spawns fresh workers."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# -- the module-level default pool (warm reuse across parallel_map calls) --

_default_pool: WorkerPool | None = None
_last_breakdown = OverheadBreakdown()


def get_pool(workers: int | None = None) -> WorkerPool:
    """The shared persistent process pool, (re)created to match ``workers``.

    Repeated calls with the same worker count return the same warm pool;
    asking for a different count shuts the old one down first.
    """
    global _default_pool
    wanted = workers if workers is not None else available_cores()
    if wanted <= 0:
        raise ReproError("workers must be positive")
    if _default_pool is None or _default_pool.workers != wanted:
        if _default_pool is not None:
            _default_pool.shutdown()
        _default_pool = WorkerPool(wanted)
    return _default_pool


def shutdown_pool() -> None:
    """Shut down the shared pool (idempotent; safe to call anytime)."""
    global _default_pool
    if _default_pool is not None:
        _default_pool.shutdown()
        _default_pool = None


atexit.register(shutdown_pool)


def last_breakdown() -> OverheadBreakdown:
    """The overhead breakdown of the most recent :func:`parallel_map`."""
    return _last_breakdown


def parallel_map(fn: Callable, items: Sequence, *,
                 workers: int | None = None,
                 chunk_mode: str = "block",
                 chunk_size: int | None = None,
                 pool: WorkerPool | None = None) -> list:
    """Map ``fn`` over ``items`` using a process pool.

    ``fn`` must be picklable (defined at module top level). Results keep
    input order under every ``chunk_mode`` (``block``, ``cyclic``,
    ``dynamic``, ``guided`` — see :mod:`repro.core.partition`). With one
    worker (or ≤1 item) no pool is touched.

    By default the shared persistent pool (:func:`get_pool`) does the
    work, so only the first call pays process spawn. Pass an explicit
    ``pool`` — of any kind — to manage the lifecycle yourself; a fresh
    ``with WorkerPool(n) as p: p.map(...)`` is the cold-start baseline
    bench E12 compares against.
    """
    global _last_breakdown
    if workers is not None and workers <= 0:
        raise ReproError("workers must be positive")
    if pool is None:
        n_workers = workers if workers is not None else available_cores()
        if n_workers == 1 or len(items) <= 1:
            pool = WorkerPool(kind="serial")
        else:
            pool = get_pool(n_workers)
    out = pool.map(fn, items, chunk_mode=chunk_mode, chunk_size=chunk_size)
    _last_breakdown = pool.last_breakdown
    return out


# A picklable CPU-bound kernel for demos and tests.
def burn(n: int) -> int:
    """Spin ``n`` iterations of integer work; returns a checksum."""
    acc = 0
    for i in range(n):
        acc = (acc * 1103515245 + 12345 + i) & 0x7FFFFFFF
    return acc
