"""``python -m repro cluster`` — drive the sharded workloads and report.

Prints the E20 story for one workload: the simulated speedup curve, the
per-node comm/compute cycle breakdown, and (for Life) the bit-identical
check against the serial oracle. ``--chrome OUT.json`` re-runs the
largest configuration with a recorder attached and writes a validated
Chrome trace with one lane per node::

    python -m repro cluster life --nodes 8 --rounds 10 --grid 128
    python -m repro cluster mapreduce --nodes 4 --schedule dynamic
    python -m repro cluster pipeline --nodes 6 --items 64 --skew 3
    python -m repro cluster life --chrome cluster.json
"""

from __future__ import annotations

import numpy as np

from repro import cli
from repro.cluster.life import cluster_scaling, run_cluster_life
from repro.cluster.mapreduce import map_reduce_cache, map_reduce_translate
from repro.cluster.network import NetworkCostModel
from repro.cluster.queues import run_pipeline
from repro.life.grid import random_grid
from repro.life.serial import step

def _node_counts(top: int) -> list[int]:
    counts = [1]
    while counts[-1] * 2 <= top:
        counts.append(counts[-1] * 2)
    if counts[-1] != top:
        counts.append(top)
    return counts


def _breakdown_lines(node_counters: list[dict[str, float]]) -> list[str]:
    out = []
    for rank, c in enumerate(node_counters):
        total = c.get("cycles", 0.0)
        compute = c.get("cycles_compute", 0.0)
        comm = total - compute
        share = comm / total if total else 0.0
        out.append(f"    node{rank}: {total:10.0f} cy  "
                   f"(compute {compute:10.0f}, comm {comm:8.0f}, "
                   f"{share:5.1%} comm)")
    return out


def _demo_life(nodes: int, rounds: int, grid_n: int, mode: str,
               cost: NetworkCostModel, chrome: str | None) -> int:
    grid = random_grid(grid_n, grid_n, seed=31)
    print(f"banded Life: {grid_n}x{grid_n} {mode}, {rounds} rounds")
    print(f"  {'nodes':>5}  {'makespan':>10}  {'speedup':>7}  "
          f"{'comm%':>6}  {'msgs':>6}")
    results = cluster_scaling(grid, rounds, _node_counts(nodes), mode=mode,
                              net_cost=cost)
    for n, res in results.items():
        print(f"  {n:>5}  {res.makespan:>10.0f}  {res.speedup:>6.2f}x  "
              f"{res.comm_fraction:>6.1%}  "
              f"{res.net_counters['messages']:>6.0f}")
    largest = results[max(results)]
    print(f"\n  per-node breakdown at {largest.num_nodes} nodes:")
    print("\n".join(_breakdown_lines(largest.node_counters)))
    oracle = grid.astype(np.uint8)
    for _ in range(rounds):
        oracle = step(oracle, mode)
    ok = bool(np.array_equal(largest.grid, oracle))
    print(f"\n  bit-identical to serial oracle: {ok}")
    if chrome is not None:
        with cli.chrome_trace(chrome) as rec:
            run_cluster_life(grid, rounds, nodes=max(results), mode=mode,
                             net_cost=cost, recorder=rec)
    return 0 if ok else 1


def _demo_mapreduce(nodes: int, items: int, schedule: str,
                    cost: NetworkCostModel, chrome: str | None) -> int:
    rng = np.random.default_rng(31)
    trace = (rng.integers(0, 64, size=items) * 64).tolist()
    addrs = (rng.integers(0, 32, size=items) * 4096 + 16).tolist()
    print(f"map-reduce: {items}-item traces over {nodes} nodes "
          f"({schedule} placement)")
    for label, res in (
            ("cache", map_reduce_cache(trace, nodes=nodes,
                                       schedule=schedule, net_cost=cost)),
            ("translate", map_reduce_translate(addrs, nodes=nodes,
                                               schedule=schedule,
                                               net_cost=cost))):
        merged = ", ".join(f"{k}={v}" for k, v in sorted(res.merged.items()))
        print(f"\n  {label}: shards {res.shard_sizes}, "
              f"makespan {res.makespan:.0f} cy")
        print(f"    merged: {merged}")
        print("\n".join(_breakdown_lines(res.node_counters)))
    if chrome is not None:
        with cli.chrome_trace(chrome) as rec:
            map_reduce_cache(trace, nodes=nodes, schedule=schedule,
                             net_cost=cost, recorder=rec)
    return 0


def _demo_pipeline(nodes: int, items: int, skew: float,
                   cost: NetworkCostModel, chrome: str | None) -> int:
    producers = max(1, nodes // 3)
    consumers = max(1, nodes - producers)
    print(f"pipeline: {items} items, {producers} producers -> "
          f"{consumers} consumers (skew {skew:g})")
    for placement in ("round-robin", "earliest"):
        res = run_pipeline(items, producers=producers, consumers=consumers,
                           placement=placement, skew=skew, seed=31,
                           net_cost=cost)
        print(f"\n  {placement}: makespan {res.makespan:.0f} cy, "
              f"{res.throughput:.2f} items/kcy, "
              f"consumer items {res.consumer_items}")
        print("\n".join(_breakdown_lines(res.node_counters)))
    if chrome is not None:
        with cli.chrome_trace(chrome) as rec:
            run_pipeline(items, producers=producers, consumers=consumers,
                         placement="earliest", skew=skew, seed=31,
                         net_cost=cost, recorder=rec)
    return 0


def add_arguments(parser) -> None:
    """Declare ``cluster``'s demo and options."""
    demos = ("life", "mapreduce", "pipeline")
    parser.add_argument("demo", nargs="?", default="life", metavar="DEMO",
                        type=cli.choice("demo", demos),
                        help="life (banded Life, the default), mapreduce "
                             "(sharded trace engines) or pipeline")
    for flag, default, text in (
            ("--nodes", 8, "largest cluster size"),
            ("--rounds", 10, "Life generations"),
            ("--grid", 128, "Life grid is N x N"),
            ("--items", 64, "pipeline items / mapreduce trace length")):
        parser.add_argument(flag, type=cli.positive_int, default=default,
                            metavar="N", help=f"{text} (default: {default})")
    parser.add_argument("--mode", choices=("torus", "bounded"),
                        default="torus", help="Life edges (default: torus)")
    parser.add_argument("--schedule", default="block",
                        choices=("block", "cyclic", "dynamic", "guided"),
                        help="mapreduce placement (default: block)")
    for flag, kind, default, text in (
            ("--skew", cli.non_negative_float, 3.0, "pipeline per-item skew"),
            ("--latency", cli.non_negative_float, 50.0, "network cycles"),
            ("--bandwidth", cli.positive_float, 8.0, "network bytes/cycle")):
        parser.add_argument(flag, type=kind, default=default, metavar="F",
                            help=f"{text} (default: {default:g})")
    cli.add_chrome(parser, "re-run the largest configuration traced")


def main(args) -> int:
    """Run the chosen demo; 1 if Life's result differs from the oracle."""
    cost = NetworkCostModel(latency=args.latency, bandwidth=args.bandwidth)
    if args.demo == "life":
        return _demo_life(args.nodes, args.rounds, args.grid, args.mode,
                          cost, args.chrome)
    if args.demo == "mapreduce":
        return _demo_mapreduce(args.nodes, args.items, args.schedule, cost,
                               args.chrome)
    return _demo_pipeline(args.nodes, args.items, args.skew, cost,
                          args.chrome)


def run(argv: list[str]) -> int:
    """``python -m repro cluster ARGV``; returns the exit status."""
    return cli.run_command("cluster", argv)
