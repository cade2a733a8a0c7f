"""Conway's Game of Life labs (CS 31 §III-B, Labs 6 and 10).

Grid + the lab input file format, a pattern library, the serial engine
(numpy, with a pure-Python oracle), the pthreads-style parallel engine
on the simulated multicore machine (barriers + mutex, with the
missing-barrier race demo and lock-granularity knobs), a real
multiprocessing variant, and the ParaVis-style terminal visualizer.
"""

from repro.life.grid import (
    LifeConfig,
    config_from_grid,
    grids_equal,
    load_config,
    parse_config,
    population,
    random_grid,
    save_config,
)
from repro.life.patterns import (
    make,
    pattern_cells,
    pattern_displacement,
    pattern_names,
    pattern_period,
    place,
)
from repro.life.serial import (
    GameOfLife,
    band_neighbor_counts,
    find_cycle,
    neighbor_counts,
    step,
    step_band,
    step_reference,
    step_rows,
)
from repro.life.parallel import (
    CELL_CYCLES,
    ParallelLife,
    run_parallel_backend,
    run_parallel_shm,
    run_serial_cycles,
    simulated_scaling,
    step_region,
)
from repro.life.paravis import (
    animate,
    frame_sequence,
    population_sparkline,
    render,
    render_regions,
)

__all__ = [
    "LifeConfig", "parse_config", "load_config", "save_config",
    "config_from_grid", "random_grid", "population", "grids_equal",
    "pattern_names", "pattern_cells", "pattern_period",
    "pattern_displacement", "place", "make",
    "GameOfLife", "step", "step_reference", "step_rows", "step_band",
    "neighbor_counts", "band_neighbor_counts", "find_cycle",
    "ParallelLife", "step_region", "run_parallel_shm",
    "run_parallel_backend", "simulated_scaling",
    "run_serial_cycles", "CELL_CYCLES",
    "render", "render_regions", "animate", "frame_sequence",
    "population_sparkline",
]
