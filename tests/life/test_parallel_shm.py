"""Tests for the zero-copy shared-memory Life engine and its kernel.

The acceptance bar: shared-memory output is bit-identical to the serial
numpy engine for every library pattern over ≥50 generations. These are
correctness tests at 2–3 workers, valid on any host including the
single-core CI machine (only *speedup* degrades there — documented in
EXPERIMENTS.md).
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core import partition_grid
from repro.errors import ReproError
from repro.life import parallel
from repro.life import (
    GameOfLife,
    band_neighbor_counts,
    grids_equal,
    make,
    neighbor_counts,
    pattern_names,
    random_grid,
    run_parallel_backend,
    run_parallel_shm,
    step,
    step_band,
)
from tests._deadline import run_with_deadline

GENERATIONS = 50


class TestBandKernel:
    @pytest.mark.parametrize("mode", ["torus", "bounded"])
    @pytest.mark.parametrize("band", [(0, 5), (3, 9), (12, 17),
                                      (0, 17), (4, 4)])
    def test_band_counts_match_full_counts(self, mode, band):
        grid = random_grid(17, 13, seed=3)
        lo, hi = band
        assert (band_neighbor_counts(grid, lo, hi, mode)
                == neighbor_counts(grid, mode)[lo:hi]).all()

    @pytest.mark.parametrize("mode", ["torus", "bounded"])
    def test_step_band_matches_step(self, mode):
        grid = random_grid(12, 10, seed=8)
        out = np.zeros_like(grid)
        for lo, hi in [(0, 4), (4, 9), (9, 12)]:
            step_band(grid, out, lo, hi, mode)
        assert grids_equal(out, step(grid, mode))

    @pytest.mark.parametrize("mode", ["torus", "bounded"])
    @pytest.mark.parametrize("orientation", ["row", "col"])
    @pytest.mark.parametrize("parts", [1, 3, 14])
    def test_step_region_matches_step(self, mode, orientation, parts):
        grid = random_grid(12, 10, seed=5)
        out = np.zeros_like(grid)
        live = sum(parallel.step_region(grid, out, region, mode)
                   for region in partition_grid(12, 10, parts, orientation))
        assert grids_equal(out, step(grid, mode))
        assert live == int(out.sum())

    def test_validation(self):
        grid = random_grid(8, 8, seed=1)
        with pytest.raises(ReproError):
            band_neighbor_counts(grid, -1, 4)
        with pytest.raises(ReproError):
            band_neighbor_counts(grid, 2, 9)
        with pytest.raises(ReproError):
            band_neighbor_counts(grid, 0, 4, "klein-bottle")


class TestSharedMemoryOracle:
    @pytest.mark.parametrize("name", pattern_names())
    def test_every_pattern_50_generations(self, name):
        """The acceptance criterion, pattern for pattern."""
        grid = make(name, margin=3)
        serial = GameOfLife(grid.copy())
        serial.run(GENERATIONS)
        result = run_parallel_shm(grid, GENERATIONS, workers=2)
        assert (result == serial.grid).all()

    def test_random_grid_matches_serial(self):
        grid = random_grid(24, 20, seed=7)
        serial = GameOfLife(grid.copy())
        serial.run(10)
        assert grids_equal(run_parallel_shm(grid, 10, workers=3),
                           serial.grid)

    def test_bounded_mode(self):
        grid = random_grid(14, 14, seed=9)
        expected = step(step(grid, "bounded"), "bounded")
        assert grids_equal(
            run_parallel_shm(grid, 2, workers=2, mode="bounded"), expected)

    def test_more_workers_than_rows(self):
        grid = random_grid(4, 6, seed=2)
        expected = step(step(grid))
        assert grids_equal(run_parallel_shm(grid, 2, workers=16), expected)

    def test_zero_rounds_returns_copy(self):
        grid = make("glider")
        result = run_parallel_shm(grid, 0, workers=2)
        assert grids_equal(result, grid)
        result[0, 0] = 1
        assert grid[0, 0] == 0   # a copy, not a view

    def test_single_worker_serial_path(self):
        grid = random_grid(10, 10, seed=6)
        assert grids_equal(run_parallel_shm(grid, 2, workers=1),
                           step(step(grid)))

    def test_odd_round_counts_land_in_right_buffer(self):
        """Double buffering must return the buffer parity wrote last."""
        grid = random_grid(12, 12, seed=4)
        for rounds in (1, 2, 3, 4, 5):
            expected = grid
            for _ in range(rounds):
                expected = step(expected)
            assert grids_equal(run_parallel_shm(grid, rounds, workers=2),
                               expected)

    def test_validation(self):
        with pytest.raises(ReproError):
            run_parallel_shm(make("block"), 1, workers=0)
        with pytest.raises(ReproError):
            run_parallel_shm(make("block"), -1, workers=2)


class TestDispatcher:
    def test_methods_agree(self):
        """The zero-copy engine and the per-round process-pool engine
        compute the same generations."""
        grid = random_grid(16, 16, seed=5)
        expected = GameOfLife(grid.copy())
        expected.run(4)
        assert grids_equal(run_parallel_shm(grid, 4, workers=2),
                           expected.grid)
        assert grids_equal(run_parallel_backend(grid, 4, workers=2,
                                                backend="process"),
                           expected.grid)

    def test_unknown_method_lists_valid(self):
        with pytest.raises(ReproError) as err:
            run_parallel_backend(make("block"), 1, workers=2,
                                 backend="mmap")
        for name in ("serial", "thread", "process"):
            assert name in str(err.value)

    def test_pickled_validation(self):
        with pytest.raises(ReproError):
            run_parallel_backend(make("block"), 1, workers=0,
                                 backend="process")


def _shm_segments() -> set[str]:
    return set(os.listdir("/dev/shm"))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not os.path.isdir("/dev/shm"),
    reason="needs the fork start method and a /dev/shm")
class TestWorkerDeath:
    """Regression: when one shared-memory worker died, its sibling sat
    in the barrier for its 300 s timeout and the parent joined workers
    one at a time for up to 600 s each. The parent must now notice the
    first dead worker at once, break the barrier and raise."""

    def test_dead_worker_fails_fast_and_frees_segments(self, monkeypatch):
        real_step = parallel._shm_step_rounds

        def die_at_row_0(buf_a, buf_b, shape, row_start, *rest):
            if row_start == 0:
                os._exit(3)
            real_step(buf_a, buf_b, shape, row_start, *rest)

        # fork, so the children run the patched module
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(parallel, "_shm_step_rounds", die_at_row_0)
        monkeypatch.setattr(parallel.mp, "get_context",
                            lambda method=None: fork)
        before = _shm_segments()
        grid = random_grid(16, 16, seed=5)
        error, seconds = run_with_deadline(
            lambda: run_parallel_shm(grid, 4, workers=2))
        assert isinstance(error, ReproError), error
        assert "rows 0-8" in str(error)
        assert seconds < 10
        assert not _shm_segments() - before
