"""E12 — where parallel time goes: pool reuse and chunk scheduling.

The paper has students *measure* speedup on real hardware (§III-B); a
backend that re-spawns its process pool per call and re-pickles its
input per step measures startup cost, not computation. This bench
quantifies the fix two ways:

* **pool lifecycle**: `parallel_map` overhead (spawn + dispatch + sync
  seconds, from the backend's own instrumentation) with a fresh pool per
  call vs the warm persistent pool, on deliberately tiny tasks where
  overhead dominates.
* **chunk scheduling**: makespan of static vs work-queue policies on a
  deliberately skewed workload, on the deterministic cost model (host-
  independent, like the simulated-machine benches).

Host-dependent assertions gate on core count: on a single-core CI host
the persistent pool must still win (spawning costs the same there), but
the 5× bar is only asserted on multicore per EXPERIMENTS.md.
"""

from benchmarks._harness import BENCH_JSON, emit, emit_json
from repro.core.mp_backend import (
    WorkerPool,
    available_cores,
    burn,
    last_breakdown,
    parallel_map,
    shutdown_pool,
)
from repro.core.partition import CHUNK_MODES, schedule_makespan

WORKERS = 2
CALLS = 5
#: tiny tasks: at ~2k iterations each, compute is microseconds and any
#: per-call pool spawn dwarfs it
ITEMS = [2_000] * 8

#: one heavy item then crumbs — the paper's uneven-region Life loads
SKEWED_COSTS = [16.0] + [1.0] * 15


def _call(per_call: bool):
    """One map of ITEMS — on a fresh pool, or on the warm module pool —
    and its breakdown."""
    if per_call:
        with WorkerPool(WORKERS) as pool:
            pool.map(burn, ITEMS)
        return pool.last_breakdown
    parallel_map(burn, ITEMS, workers=WORKERS)
    return last_breakdown()


def _mean_overhead(per_call: bool) -> tuple[float, float, object]:
    """Mean (overhead, wall) per call over CALLS calls, plus the last
    call's full breakdown."""
    total_overhead = total_wall = 0.0
    breakdown = None
    for _ in range(CALLS):
        breakdown = _call(per_call)
        total_overhead += breakdown.overhead
        total_wall += breakdown.wall
    return total_overhead / CALLS, total_wall / CALLS, breakdown


def test_bench_pool_lifecycle(benchmark):
    host_cores = available_cores()
    shutdown_pool()   # measure the persistent pool from genuinely cold

    percall_overhead, percall_wall, percall_bd = _mean_overhead(
        per_call=True)
    # first warm-pool call pays spawn once; measure steady state after it
    parallel_map(burn, ITEMS, workers=WORKERS)
    persistent_overhead, persistent_wall, persistent_bd = _mean_overhead(
        per_call=False)
    benchmark.pedantic(
        lambda: parallel_map(burn, ITEMS, workers=WORKERS),
        rounds=1, iterations=1)
    shutdown_pool()

    ratio = percall_overhead / persistent_overhead
    emit(f"pool lifecycle: mean per-call overhead on {len(ITEMS)} tiny "
         f"tasks, {WORKERS} workers, {CALLS} calls (host has {host_cores} "
         "core(s))",
         ["style", "spawn ms", "dispatch ms", "compute ms", "sync ms",
          "overhead ms", "wall ms"],
         [(style, f"{bd.spawn * 1e3:.2f}", f"{bd.dispatch * 1e3:.2f}",
           f"{bd.compute * 1e3:.2f}", f"{bd.sync * 1e3:.2f}",
           f"{ovh * 1e3:.2f}", f"{wall * 1e3:.2f}")
          for style, bd, ovh, wall in
          [("per-call pool", percall_bd, percall_overhead, percall_wall),
           ("persistent pool", persistent_bd, persistent_overhead,
            persistent_wall)]],
         align_right=[False, True, True, True, True, True, True])
    print(f"overhead ratio (per-call / persistent): {ratio:.1f}x")

    emit_json(BENCH_JSON, [
        {"bench": "backend_overhead", "style": style, "workers": WORKERS,
         "host_cores": host_cores, "calls": CALLS,
         "mean_overhead_s": ovh, "mean_wall_s": wall,
         "spawn_s": bd.spawn, "dispatch_s": bd.dispatch,
         "compute_s": bd.compute, "sync_s": bd.sync}
        for style, bd, ovh, wall in
        [("per-call", percall_bd, percall_overhead, percall_wall),
         ("persistent", persistent_bd, persistent_overhead,
          persistent_wall)]])

    # the warm pool never pays spawn; a per-call pool always does
    assert persistent_bd.spawn == 0.0
    assert percall_bd.spawn > 0.0
    if host_cores >= 2:
        assert ratio >= 5.0, (
            f"persistent pool should cut dispatch overhead ≥5x on a "
            f"multicore host, got {ratio:.1f}x")
    else:
        # single-core degrade: spawning still costs real time, so the
        # persistent pool must win, just without the multicore bar
        assert ratio > 1.0


def test_bench_chunk_scheduling(benchmark):
    rows = []
    results = {}

    def run():
        for mode in CHUNK_MODES:
            kwargs = {"chunk_size": 1} if mode == "dynamic" else {}
            results[mode] = schedule_makespan(SKEWED_COSTS, 4, mode,
                                              **kwargs)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    ideal = sum(SKEWED_COSTS) / 4
    for mode in CHUNK_MODES:
        rows.append((mode, f"{results[mode]:.1f}",
                     f"{results[mode] / ideal:.2f}x"))

    emit("chunk scheduling on a skewed load (one 16-cost item + 15 "
         "1-cost items, 4 workers; cost model, deterministic)",
         ["mode", "makespan", "vs ideal"], rows,
         align_right=[False, True, True])
    emit_json(BENCH_JSON, [
        {"bench": "chunk_scheduling", "mode": mode,
         "makespan": results[mode], "ideal": ideal}
        for mode in CHUNK_MODES])

    # the work-queue policies absorb the skew static assignment cannot
    assert results["dynamic"] < results["block"]
    assert results["dynamic"] < results["cyclic"]
    # no policy beats the bound set by the single heavy item
    assert all(m >= max(SKEWED_COSTS) for m in results.values())
