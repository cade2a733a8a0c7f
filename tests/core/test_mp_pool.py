"""Tests for the persistent WorkerPool and pluggable chunk scheduling.

Correctness (identical results, preserved order, exact coverage) is
asserted with real processes at 2 workers — valid on any host, including
the single-core CI machine, where only *speed* degrades (documented in
EXPERIMENTS.md). Makespan claims use the deterministic cost model.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.core import OverheadBreakdown, mp_backend
from repro.core.mp_backend import (
    WorkerPool,
    burn,
    get_pool,
    last_breakdown,
    parallel_map,
    shutdown_pool,
)
from repro.core.partition import (
    CHUNK_MODES,
    chunk_indices,
    dynamic_chunks,
    guided_chunks,
    schedule_makespan,
)
from repro.errors import ReproError
from tests._deadline import run_with_deadline


@pytest.fixture(autouse=True)
def _clean_module_pool():
    """Every test leaves no warm module pool behind."""
    yield
    shutdown_pool()


class TestChunkHelpers:
    @pytest.mark.parametrize("mode", CHUNK_MODES)
    @pytest.mark.parametrize("n,workers", [(0, 3), (1, 4), (7, 3),
                                           (16, 4), (5, 8)])
    def test_every_mode_covers_exactly(self, mode, n, workers):
        chunks = chunk_indices(n, workers, mode)
        flat = sorted(i for chunk in chunks for i in chunk)
        assert flat == list(range(n))

    def test_block_and_cyclic_are_one_chunk_per_worker(self):
        assert len(chunk_indices(12, 4, "block")) == 4
        assert len(chunk_indices(12, 4, "cyclic")) == 4

    def test_dynamic_chunk_size_respected(self):
        chunks = dynamic_chunks(10, 3)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]

    def test_guided_sizes_nonincreasing(self):
        sizes = [len(c) for c in guided_chunks(100, 4)]
        assert sizes == sorted(sizes, reverse=True)
        assert sum(sizes) == 100

    def test_validation(self):
        with pytest.raises(ReproError):
            chunk_indices(5, 0, "block")
        with pytest.raises(ReproError):
            dynamic_chunks(5, 0)
        with pytest.raises(ReproError):
            guided_chunks(5, 0)
        with pytest.raises(ReproError):
            guided_chunks(-1, 2)

    def test_unknown_mode_lists_valid_modes(self):
        with pytest.raises(ReproError) as err:
            chunk_indices(5, 2, "hash")
        for mode in CHUNK_MODES:
            assert mode in str(err.value)


class TestScheduleMakespan:
    SKEWED = [16.0] + [1.0] * 15

    def test_dynamic_beats_static_on_skew(self):
        static = schedule_makespan(self.SKEWED, 4, "block")
        dynamic = schedule_makespan(self.SKEWED, 4, "dynamic", chunk_size=1)
        assert dynamic < static

    def test_guided_beats_static_on_skew(self):
        static = schedule_makespan(self.SKEWED, 4, "block")
        guided = schedule_makespan(self.SKEWED, 4, "guided")
        assert guided <= static

    def test_balanced_load_all_modes_near_ideal(self):
        costs = [1.0] * 16
        for mode in CHUNK_MODES:
            assert schedule_makespan(costs, 4, mode) == pytest.approx(4.0)

    def test_heavy_item_is_the_floor(self):
        for mode in CHUNK_MODES:
            assert schedule_makespan(self.SKEWED, 4, mode) >= 16.0

    def test_empty(self):
        assert schedule_makespan([], 4, "block") == 0.0


class TestParallelMapScheduling:
    ITEMS = list(range(23))

    @pytest.mark.parametrize("mode", CHUNK_MODES)
    def test_all_modes_identical_and_ordered(self, mode):
        expected = [burn(x) for x in self.ITEMS]
        assert parallel_map(burn, self.ITEMS, workers=2,
                            chunk_mode=mode) == expected

    def test_cyclic_mode_accepted(self):
        """Regression: cyclic was rejected despite cyclic_partition
        existing."""
        assert parallel_map(burn, [3, 4, 5], workers=2,
                            chunk_mode="cyclic") == [burn(3), burn(4),
                                                     burn(5)]

    def test_bad_mode_error_lists_modes(self):
        with pytest.raises(ReproError) as err:
            parallel_map(burn, [1, 2], workers=2, chunk_mode="hash")
        for mode in CHUNK_MODES:
            assert mode in str(err.value)

    def test_explicit_chunk_size(self):
        expected = [burn(x) for x in self.ITEMS]
        assert parallel_map(burn, self.ITEMS, workers=2,
                            chunk_mode="dynamic",
                            chunk_size=2) == expected


class TestWorkerPool:
    def test_lazy_until_first_map(self):
        with WorkerPool(2) as pool:
            assert not pool.is_alive
            pool.map(burn, [10, 20, 30])
            assert pool.is_alive
        assert not pool.is_alive

    def test_warm_reuse_skips_spawn(self):
        with WorkerPool(2) as pool:
            pool.map(burn, [10, 20, 30])
            assert pool.spawn_count == 1
            assert pool.last_breakdown.spawn > 0.0
            pool.map(burn, [40, 50, 60])
            assert pool.spawn_count == 1
            assert pool.last_breakdown.spawn == 0.0

    def test_restart_after_shutdown(self):
        pool = WorkerPool(2)
        try:
            pool.map(burn, [1, 2, 3])
            pool.shutdown()
            assert pool.map(burn, [4, 5, 6]) == [burn(4), burn(5), burn(6)]
            assert pool.spawn_count == 2
        finally:
            pool.shutdown()

    def test_shutdown_idempotent(self):
        pool = WorkerPool(2)
        pool.map(burn, [1, 2])
        pool.shutdown()
        pool.shutdown()
        assert not pool.is_alive

    def test_pool_survives_worker_exception(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ZeroDivisionError):
                pool.map(_reciprocal, [1, 0, 2])
            assert pool.map(_reciprocal, [1, 2, 4]) == [1.0, 0.5, 0.25]

    def test_empty_and_single_item_touch_no_workers(self):
        with WorkerPool(2) as pool:
            assert pool.map(burn, []) == []
            assert pool.map(burn, [7]) == [burn(7)]
            assert not pool.is_alive

    def test_validation(self):
        with pytest.raises(ReproError):
            WorkerPool(0)
        with WorkerPool(2) as pool:
            with pytest.raises(ReproError):
                pool.map(burn, [1, 2], chunk_mode="hash")

    def test_breakdown_accounts_for_the_call(self):
        with WorkerPool(2) as pool:
            pool.map(burn, [2000] * 8)
            bd = pool.last_breakdown
            assert bd.wall > 0.0
            assert bd.compute > 0.0
            assert bd.overhead == pytest.approx(
                bd.spawn + bd.dispatch + bd.sync)
            assert 0.0 <= bd.overhead_fraction <= 1.0

    def test_breakdown_addition(self):
        a = OverheadBreakdown(1.0, 2.0, 3.0, 4.0, 10.0)
        b = a + a
        assert b.spawn == 2.0 and b.wall == 20.0

    def test_sync_measured_against_actual_chunk_count(self):
        """Regression: with fewer chunks than workers, sync used to be
        computed as ``wait - compute / workers`` — under-attributing
        sync by ``compute * (1/k - 1/workers)``. The breakdown
        invariant is ``spawn + dispatch + compute/k + sync ≈ wall``
        where k is the number of chunks actually produced."""
        with WorkerPool(4) as pool:
            pool.map(burn, [700_000, 700_000])   # block mode → 2 chunks
            bd = pool.last_breakdown
            k = 2
            model = bd.spawn + bd.dispatch + bd.compute / k + bd.sync
            assert model == pytest.approx(bd.wall, rel=0.15)

    def test_single_item_inline_path_is_accounted(self):
        """Regression: the single-item fast path used to bypass the
        recorder entirely — a warm-up ``map`` with one item left no
        trace span, corrupting E12/E19 span comparisons. The inline
        path is deliberate (no workers are spawned: that stays pinned
        by test_empty_and_single_item_touch_no_workers); it must now
        announce itself with an ``inline`` span."""
        from repro.obs.recorder import TraceRecorder
        rec = TraceRecorder()
        with WorkerPool(2, recorder=rec) as pool:
            pool.map(burn, [2_000])
            assert not pool.is_alive
            bd = pool.last_breakdown
            assert bd.compute > 0.0
            assert bd.wall == bd.compute
            assert bd.spawn == 0.0 and bd.dispatch == 0.0
        inline = [e for e in rec.events() if e.name == "inline"]
        assert len(inline) == 1
        assert inline[0].args["items"] == 1
        assert inline[0].args["seconds"] == pytest.approx(bd.compute)


class TestModulePool:
    def test_same_workers_same_pool(self):
        assert get_pool(2) is get_pool(2)

    def test_different_workers_new_pool(self):
        first = get_pool(2)
        second = get_pool(3)
        assert second is not first
        assert second.workers == 3
        assert not first.is_alive   # old pool was shut down

    def test_parallel_map_reuses_module_pool(self):
        parallel_map(burn, [10, 20, 30], workers=2)
        pool = get_pool(2)
        assert pool.spawn_count == 1
        parallel_map(burn, [40, 50, 60], workers=2)
        assert pool.spawn_count == 1
        assert last_breakdown().spawn == 0.0

    def test_explicit_pool_leaves_module_pool_cold(self):
        """E12's per-call arm: a scoped pool never warms the module one."""
        shutdown_pool()
        with WorkerPool(2) as pool:
            parallel_map(burn, [1, 2, 3], pool=pool)
        # get_pool would create one now; the per-call path must not have
        assert mp_backend._default_pool is None

    def test_explicit_pool_argument(self):
        with WorkerPool(2) as pool:
            out = parallel_map(burn, [5, 6, 7], workers=2, pool=pool)
            assert out == [burn(5), burn(6), burn(7)]
            assert pool.spawn_count == 1

    def test_shutdown_pool_idempotent(self):
        shutdown_pool()
        shutdown_pool()


class TestWorkerDeath:
    """Regression: a process worker that died mid-map hung the call
    forever, because the pool dropped the lost task. The call must now
    raise within seconds, and the next call must respawn the workers."""

    def test_dead_worker_fails_fast_and_pool_recovers(self):
        pool = WorkerPool(2)
        error, seconds = run_with_deadline(
            lambda: pool.map(_exit_on_3, range(8)))
        assert isinstance(error, ReproError), error
        assert "WorkerPool" in str(error)
        assert seconds < 10
        assert pool.map(_exit_on_3, [0, 1, 2, 4]) == [0, 2, 4, 8]
        assert pool.spawn_count == 2
        pool.shutdown()

    def test_worker_dead_between_maps_fails_fast(self):
        """A worker that dies while idle breaks the pool before the next
        map submits anything; that map must raise the same error."""
        pool = WorkerPool(2)
        assert pool.map(_exit_after_return, [0, 1]) == [0, 1]
        alive = len(multiprocessing.active_children())
        deadline = time.monotonic() + 10
        while (len(multiprocessing.active_children()) >= alive
               and time.monotonic() < deadline):
            time.sleep(0.01)
        time.sleep(0.2)      # let the executor see the dead worker
        error, seconds = run_with_deadline(
            lambda: pool.map(burn, [1, 2, 3]))
        assert isinstance(error, ReproError), error
        assert seconds < 10
        assert pool.map(burn, [1, 2, 3]) == [burn(1), burn(2), burn(3)]
        pool.shutdown()

    def test_module_pool_fails_fast_and_recovers(self, monkeypatch):
        # a private module pool: if the call hangs, the hung pool goes
        # away with the patch instead of blocking shutdown_pool()
        monkeypatch.setattr(mp_backend, "_default_pool", None)
        error, seconds = run_with_deadline(
            lambda: parallel_map(_exit_on_3, range(8), workers=2))
        assert isinstance(error, ReproError), error
        assert seconds < 10
        assert parallel_map(_exit_on_3, [0, 1, 2, 4], workers=2) == [0, 2,
                                                                     4, 8]
        assert get_pool(2).spawn_count == 2
        shutdown_pool()


# picklable helpers for the exception and worker-death tests
def _reciprocal(x):
    return 1 / x


def _exit_on_3(x):
    if x == 3:
        os._exit(1)
    return 2 * x


def _exit_after_return(x):
    if x == 0:
        threading.Timer(0.05, os._exit, (1,)).start()
    return x
