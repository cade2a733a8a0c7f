"""Unit tests for the Pthreads facade and the multiprocessing backend."""

import pytest

from repro.core import (
    BarrierWait,
    Lock,
    Pthreads,
    SyncCosts,
    Unlock,
    Work,
    is_near_linear,
    measure_scaling,
    scaling_table,
)
from repro.core.mp_backend import (
    available_cores,
    burn,
    parallel_map,
)
from repro.errors import ReproError

FREE = SyncCosts(lock=0, unlock=0, barrier=0, cond=0, sem=0, spawn=0)


def worker(cycles):
    yield Work(cycles)


class TestPthreadsFacade:
    def test_create_join_all(self):
        pt = Pthreads(num_cores=4, costs=FREE)
        for _ in range(4):
            pt.create(worker, 100)
        assert pt.join_all() == pytest.approx(100)
        assert pt.speedup() == pytest.approx(4.0)

    def test_primitive_constructors(self):
        pt = Pthreads()
        mu = pt.mutex_init("m")
        bar = pt.barrier_init(2)
        cv = pt.cond_init()
        sem = pt.sem_init(3)
        assert mu.name == "m" and bar.parties == 2
        assert sem.value == 3 and cv.name == "cond"

    def test_thread_report(self):
        pt = Pthreads(num_cores=2, costs=FREE)
        mu = pt.mutex_init()

        def locked():
            yield Lock(mu)
            yield Work(50)
            yield Unlock(mu)

        pt.create(locked, name="alpha")
        pt.create(locked, name="beta")
        pt.join_all()
        report = pt.thread_report()
        assert "alpha" in report and "blocked=" in report

    def test_barrier_round_trip(self):
        pt = Pthreads(num_cores=2, costs=FREE)
        bar = pt.barrier_init(2)

        def staged():
            yield Work(10)
            yield BarrierWait(bar)
            yield Work(10)

        pt.create(staged)
        pt.create(staged)
        assert pt.join_all() == pytest.approx(20)


class TestMeasureScaling:
    def test_near_linear_for_balanced_work(self):
        """The shape behind the paper's speedup claim, via the facade."""
        def make_bodies(k):
            return [(worker, (16_000 / k,)) for _ in range(k)]

        times = measure_scaling(make_bodies, [1, 2, 4, 8, 16])
        rows = scaling_table(times[1], times)
        # spawn/startup overhead grows with thread count, so "near
        # linear" (the paper's wording) rather than perfectly linear
        assert is_near_linear(rows, efficiency_floor=0.9)
        assert rows[-1].speedup > 14

    def test_fixed_cores_saturate(self):
        def make_bodies(k):
            return [(worker, (1000,)) for _ in range(k)]

        times = measure_scaling(make_bodies, [1, 2, 4],
                                cores_equal_threads=False, num_cores=2)
        assert times[4] > times[1]   # more threads than cores: no gain

    def test_empty_counts_rejected(self):
        with pytest.raises(Exception):
            measure_scaling(lambda k: [], [])


class TestMultiprocessingBackend:
    def test_results_match_serial(self):
        items = list(range(40))
        assert parallel_map(burn, items, workers=2) == [burn(x)
                                                        for x in items]

    def test_order_preserved(self):
        items = [5, 1, 9, 3]
        assert parallel_map(lambda_free := burn, items, workers=2) == [
            burn(x) for x in items]

    def test_single_worker_no_pool(self):
        assert parallel_map(burn, [3, 4], workers=1) == [burn(3), burn(4)]

    def test_single_item(self):
        assert parallel_map(burn, [7], workers=8) == [burn(7)]

    def test_empty(self):
        assert parallel_map(burn, [], workers=2) == []

    def test_validation(self):
        with pytest.raises(ReproError):
            parallel_map(burn, [1], workers=0)
        with pytest.raises(ReproError):
            parallel_map(burn, [1], chunk_mode="hash")

    def test_available_cores_positive(self):
        assert available_cores() >= 1
