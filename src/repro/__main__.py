"""``python -m repro`` — a one-screen tour of the library.

Prints the course's shape (themes, schedule, Table I category counts),
runs each lab's miniature demo, and finishes with the headline speedup
measurement, so a fresh checkout can prove itself in seconds.

``python -m repro CMD`` runs a subcommand instead, and
``python -m repro CMD --help`` prints its usage and options.
``analyze`` runs the static-analysis subsystem (see
:mod:`repro.analysis`); ``trace`` runs a demo workload under the
observability layer (see :mod:`repro.obs`) and prints a profile,
optionally exporting a Chrome trace; ``run`` compiles a program and
executes it over a pluggable memory bus (see :mod:`repro.system`);
``gil`` demos the simulated interpreter lock ablation and probes the
host's real executor backends (see :mod:`repro.core.backends`);
``cluster`` runs the sharded distributed workloads over the simulated
network and reports speedup with a comm/compute breakdown (see
:mod:`repro.cluster`). All five share one parser and one usage
contract (see :mod:`repro.cli`).
"""

from __future__ import annotations

import sys

from repro.cli import COMMANDS, run_command
from repro.core import is_near_linear, scaling_table
from repro.curriculum import (
    THEMES,
    category_counts,
    run_all_demos,
    schedule_table,
)
from repro.life import random_grid, run_serial_cycles, simulated_scaling


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        return run_command(argv[0], argv[1:])
    print("repro: CS 31 as an executable systems library")
    print("=" * 52)
    print("\nthemes:")
    for t in THEMES:
        print(f"  {t.number}. {t.title}")
    print("\nschedule:")
    print(schedule_table())
    counts = category_counts()
    print(f"\nTable I coverage: "
          + ", ".join(f"{k} {v}" for k, v in counts.items()))

    print("\nlab miniatures (Lab 0-10):")
    for number, output in run_all_demos().items():
        first_line = output.strip().splitlines()[0][:60]
        print(f"  Lab {number:>2}: {first_line}")

    print("\nheadline experiment — parallel Game of Life speedup:")
    grid = random_grid(128, 128, seed=31)
    times = simulated_scaling(grid, 4, [1, 2, 4, 8, 16])
    rows = scaling_table(run_serial_cycles(grid, 4), times)
    for p in rows:
        print(f"  {p.workers:>2} threads: {p.speedup:5.2f}x "
              f"(efficiency {p.efficiency:.2f})")
    ok = is_near_linear(rows, efficiency_floor=0.8)
    print(f"\nnear-linear up to 16 threads: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
