"""Lab 6: the serial Game of Life engine.

Two implementations: a vectorised numpy engine (the one everything else
uses — the HPC guides' "vectorize your loops") and a straightforward
pure-Python nested-loop version kept as the readable reference and
differential-test oracle, exactly the relationship between a student's
first C version and the optimised one.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.errors import ReproError

EdgeMode = Literal["torus", "bounded"]


def neighbor_counts(grid: np.ndarray, mode: EdgeMode = "torus"
                    ) -> np.ndarray:
    """Count the eight neighbours of every cell, vectorised."""
    if mode == "torus":
        total = np.zeros_like(grid, dtype=np.int32)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                total += np.roll(np.roll(grid, dr, axis=0), dc, axis=1)
        return total
    if mode == "bounded":
        padded = np.zeros((grid.shape[0] + 2, grid.shape[1] + 2),
                          dtype=np.int32)
        padded[1:-1, 1:-1] = grid
        total = np.zeros_like(grid, dtype=np.int32)
        for dr in (0, 1, 2):
            for dc in (0, 1, 2):
                if dr == 1 and dc == 1:
                    continue
                total += padded[dr:dr + grid.shape[0],
                                dc:dc + grid.shape[1]]
        return total
    raise ReproError(f"unknown edge mode {mode!r}")


def step(grid: np.ndarray, mode: EdgeMode = "torus") -> np.ndarray:
    """One synchronous round of Conway's rules (B3/S23)."""
    n = neighbor_counts(grid, mode)
    born = (grid == 0) & (n == 3)
    survives = (grid == 1) & ((n == 2) | (n == 3))
    return (born | survives).astype(np.uint8)


def apply_rule(cells: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Conway's B3/S23 rule: the next state of ``cells`` given each
    cell's live-neighbour ``counts`` — the one copy every band and
    region kernel applies."""
    return (((cells == 0) & (counts == 3))
            | ((cells == 1) & ((counts == 2) | (counts == 3)))
            ).astype(np.uint8)


def band_neighbor_counts(grid: np.ndarray, row_start: int, row_end: int,
                         mode: EdgeMode = "torus") -> np.ndarray:
    """Neighbour counts for rows [row_start, row_end) only.

    Touches just the band plus one halo row each side, so a parallel
    worker pays O(band) instead of the O(grid) a full
    :func:`neighbor_counts` would cost it — the difference between a
    partitioned kernel and one that secretly redoes everyone's work.
    Agrees exactly with ``neighbor_counts(grid, mode)[row_start:row_end]``.
    """
    rows, cols = grid.shape
    if not 0 <= row_start <= row_end <= rows:
        raise ReproError("band rows out of range")
    height = row_end - row_start
    if height == 0:
        return np.zeros((0, cols), dtype=np.int32)
    padded = np.zeros((height + 2, cols + 2), dtype=np.int32)
    if mode == "torus":
        halo_rows = np.arange(row_start - 1, row_end + 1) % rows
        padded[:, 1:-1] = grid[halo_rows]
        padded[:, 0] = padded[:, -2]
        padded[:, -1] = padded[:, 1]
    elif mode == "bounded":
        lo = max(0, row_start - 1)
        hi = min(rows, row_end + 1)
        padded[lo - (row_start - 1):hi - (row_start - 1), 1:-1] = grid[lo:hi]
    else:
        raise ReproError(f"unknown edge mode {mode!r}")
    total = np.zeros((height, cols), dtype=np.int32)
    for dr in (0, 1, 2):
        for dc in (0, 1, 2):
            if dr == 1 and dc == 1:
                continue
            total += padded[dr:dr + height, dc:dc + cols]
    return total


def step_band(grid: np.ndarray, out: np.ndarray, row_start: int,
              row_end: int, mode: EdgeMode = "torus") -> None:
    """One round for rows [row_start, row_end) into ``out``, O(band).

    The strip-view kernel the shared-memory workers run in place every
    generation: reads the band plus its halo rows from ``grid``, writes
    only its own rows of ``out``, allocates nothing grid-sized.
    """
    out[row_start:row_end] = apply_rule(
        grid[row_start:row_end],
        band_neighbor_counts(grid, row_start, row_end, mode))


def step_rows(grid: np.ndarray, out: np.ndarray, row_start: int,
              row_end: int, mode: EdgeMode = "torus") -> None:
    """Compute one round for rows [row_start, row_end) into ``out``.

    This is the kernel a Lab 10 thread runs on its region: it reads the
    neighbouring rows across its boundaries but writes only its own rows.
    """
    step_band(grid, out, row_start, row_end, mode)


def step_reference(grid: np.ndarray, mode: EdgeMode = "torus"
                   ) -> np.ndarray:
    """Nested-loop implementation — the differential-testing oracle."""
    rows, cols = grid.shape
    out = np.zeros_like(grid)
    for r in range(rows):
        for c in range(cols):
            live = 0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if mode == "torus":
                        live += grid[rr % rows, cc % cols]
                    elif 0 <= rr < rows and 0 <= cc < cols:
                        live += grid[rr, cc]
            if grid[r, c] == 1:
                out[r, c] = 1 if live in (2, 3) else 0
            else:
                out[r, c] = 1 if live == 3 else 0
    return out


def find_cycle(grid: np.ndarray, *, mode: EdgeMode = "torus",
               max_rounds: int = 1000) -> tuple[int, int] | None:
    """Detect when the simulation becomes periodic.

    Returns ``(start, period)`` — the first round at which a previously
    seen state recurs and the cycle length — or None if no repeat shows
    up within ``max_rounds``. Still lifes report period 1; a blinker
    (0, 2); a glider on a torus eventually cycles through translations.
    """
    seen: dict[bytes, int] = {}
    current = grid.astype(np.uint8)
    for round_no in range(max_rounds + 1):
        key = current.tobytes()
        if key in seen:
            first = seen[key]
            return first, round_no - first
        seen[key] = round_no
        current = step(current, mode)
    return None


class GameOfLife:
    """The Lab 6 simulation driver: rounds, population history."""

    def __init__(self, grid: np.ndarray, *, mode: EdgeMode = "torus") -> None:
        if grid.ndim != 2:
            raise ReproError("life grid must be 2-D")
        self.grid = grid.astype(np.uint8)
        self.mode: EdgeMode = mode
        self.round = 0
        self.population_history = [int(self.grid.sum())]

    def run(self, rounds: int) -> np.ndarray:
        for _ in range(rounds):
            self.grid = step(self.grid, self.mode)
            self.round += 1
            self.population_history.append(int(self.grid.sum()))
        return self.grid

    @property
    def population(self) -> int:
        return int(self.grid.sum())

    def is_extinct(self) -> bool:
        return self.population == 0
