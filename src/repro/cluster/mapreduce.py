"""Map-reduce over sharded trace engines: the cluster's batch lab.

The trace-driven engines (the caching homework's
:meth:`~repro.memory.cache.Cache.simulate_trace`, the VM homework's
:meth:`~repro.vm.mmu.MMU.translate_many`) are embarrassingly shardable:
split the access trace, give every node its *own* cache or MMU, run the
batch engine on each shard, then **merge** the per-shard counters
into cluster totals. That is map-reduce in its original shape — map a
pure engine over shards, reduce associative counters — and it is how a
trace too big for one machine (millions of users' worth of accesses)
gets simulated at all.

Shard **placement** is delegated to the E12 chunk schedulers
(:func:`repro.core.partition.chunk_indices`): ``block`` and ``cyclic``
pin chunk *i* to node *i*; ``dynamic``/``guided`` produce a work queue
that :func:`place_chunks` deals greedily to the earliest-free node —
the same list-scheduling rule :func:`~repro.core.partition
.schedule_makespan` models analytically.

Node-side cycles follow the shared
:class:`~repro.system.costing.CostModel` vocabulary (hit/walk/fault
latencies), message costs follow the
:class:`~repro.cluster.network.NetworkCostModel` — so the report's
comm/compute split is in one currency.

Semantics note (deliberate, and tested): cluster totals equal the sum
of per-shard runs, and a 1-node ``block`` run equals the plain
single-machine engine; an N-node run is *N independent caches*, so its
hit counts legitimately differ from one big cache — sharding changes
locality, which is part of the lesson.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.core.partition import CHUNK_MODES, chunk_indices
from repro.errors import ClusterError
from repro.memory.cache import Cache, CacheConfig
from repro.system.costing import CostModel

from repro.cluster.network import NetworkCostModel
from repro.cluster.node import Cluster

#: root-side cycles to fold one counter key during the reduce
MERGE_CYCLES_PER_KEY = 1.0


def place_chunks(chunks: list[list[int]], num_nodes: int,
                 mode: str) -> list[list[int]]:
    """Assign schedule chunks to nodes; returns item indices per rank.

    ``block``/``cyclic`` are static: chunk *i* belongs to node *i*.
    ``dynamic``/``guided`` deal each queue chunk to the earliest-free
    node (cost modelled as chunk length — greedy list scheduling, the
    work-queue behaviour of :func:`~repro.core.partition
    .schedule_makespan`).
    """
    if mode in ("block", "cyclic"):
        if len(chunks) != num_nodes:
            raise ClusterError("static schedule produced "
                               f"{len(chunks)} chunks for {num_nodes} nodes")
        return [list(chunk) for chunk in chunks]
    shards: list[list[int]] = [[] for _ in range(num_nodes)]
    finish = [0.0] * num_nodes
    for chunk in chunks:
        slot = min(range(num_nodes), key=finish.__getitem__)
        shards[slot].extend(chunk)
        finish[slot] += len(chunk)
    return shards


def shard_items(n: int, num_nodes: int, mode: str,
                chunk_size: int | None = None) -> list[list[int]]:
    """Item indices per rank for ``range(n)`` under a schedule mode."""
    if mode not in CHUNK_MODES:
        raise ClusterError(f"unknown schedule {mode!r}; "
                           f"valid: {', '.join(CHUNK_MODES)}")
    return place_chunks(chunk_indices(n, num_nodes, mode, chunk_size),
                        num_nodes, mode)


@dataclass
class MapReduceResult:
    """Merged counters plus the run's shape and cost."""
    engine: str                      # "cache" | "translate"
    schedule: str
    num_nodes: int
    total_items: int
    shard_sizes: list[int]
    merged: dict[str, int]           # the reduce output (cluster totals)
    makespan: float
    node_counters: list[dict[str, float]]
    net_counters: dict[str, float]

    @property
    def compute_cycles(self) -> float:
        return sum(c.get("cycles_compute", 0.0) for c in self.node_counters)

    @property
    def comm_cycles(self) -> float:
        return sum(c.get("cycles_comm", 0.0) for c in self.node_counters)


def _reduce_to_root(cluster: Cluster, partials: list[dict[str, int]]
                    ) -> dict[str, int]:
    """Gather per-node counter dicts to rank 0 and fold them (in order)."""
    root = cluster.nodes[0]
    for node in cluster.nodes[1:]:
        node.send(0, partials[node.rank], tag="reduce")
    merged = dict(partials[0])
    for node in cluster.nodes[1:]:
        part = root.recv(node.rank, tag="reduce")
        for key, value in part.items():
            merged[key] = merged.get(key, 0) + value
        root.compute(MERGE_CYCLES_PER_KEY * len(part))
    return merged


def _normalize_trace(trace) -> list:
    if isinstance(trace, np.ndarray):
        return [int(a) for a in trace]
    return list(trace)


def map_reduce_cache(trace, *, nodes: int, schedule: str = "block",
                     chunk_size: int | None = None,
                     config: CacheConfig | None = None,
                     cost: CostModel | None = None,
                     net_cost: NetworkCostModel | None = None,
                     recorder=None) -> MapReduceResult:
    """Shard a cache trace over N node-local caches and merge the stats.

    Each node hosts its own :class:`~repro.memory.cache.Cache` (the
    homework simulator) and runs the E14 vectorized engine over its
    shard; a hit costs ``hit_time``, a miss additionally pays
    ``cost.memory_time``. The reduce gathers every
    :class:`~repro.memory.cache.CacheStats` field to rank 0 and sums.
    """
    items = _normalize_trace(trace)
    if nodes < 1:
        raise ClusterError("need at least one node")
    cost = cost or CostModel()
    config = config or CacheConfig(num_lines=64, block_size=16,
                                   associativity=2, hit_time=1)
    shards = shard_items(len(items), nodes, schedule, chunk_size)
    cluster = Cluster(nodes, net_cost=net_cost, recorder=recorder)
    partials: list[dict[str, int]] = []
    for node, idxs in zip(cluster.nodes, shards):
        if idxs:
            cache = Cache(config)
            stats = cache.simulate_trace([items[i] for i in idxs])
            cycles = (stats.accesses * config.hit_time
                      + stats.misses * cost.memory_time)
            node.compute(cycles)
            part = {k: int(v) for k, v in asdict(stats).items()}
            # the derived counters are linear, so per-shard values sum
            # to the cluster-wide ones — include them in the reduce
            part["accesses"] = int(stats.accesses)
            part["hits"] = int(stats.hits)
            part["misses"] = int(stats.misses)
            partials.append(part)
        else:
            partials.append({})
    merged = _reduce_to_root(cluster, partials)
    cluster.barrier()
    return MapReduceResult(
        engine="cache", schedule=schedule, num_nodes=nodes,
        total_items=len(items), shard_sizes=[len(s) for s in shards],
        merged=merged, makespan=cluster.makespan,
        node_counters=cluster.breakdowns(),
        net_counters=cluster.net_stats().counters())


def map_reduce_translate(vaddrs, *, nodes: int, schedule: str = "block",
                         chunk_size: int | None = None,
                         page_size: int = 4096, num_frames: int = 64,
                         tlb_entries: int = 16,
                         cost: CostModel | None = None,
                         net_cost: NetworkCostModel | None = None,
                         recorder=None) -> MapReduceResult:
    """Shard an address trace over N node-local MMUs and merge the stats.

    Each node gets its own :class:`~repro.vm.mmu.MMU` (private TLB,
    page table, frames) and batch-translates its shard with
    :meth:`~repro.vm.mmu.MMU.translate_many`, the stat-delta wrapper
    over the MMU's one batch engine, :meth:`~repro.vm.mmu.MMU.replay`;
    cycles follow the EAT
    vocabulary — every access probes the TLB, a miss walks the table,
    a fault pays ``fault_service_time``.
    """
    from repro.vm.mmu import MMU
    from repro.vm.physical import PhysicalMemory
    addrs = [int(a) for a in np.asarray(vaddrs, dtype=np.int64)]
    if nodes < 1:
        raise ClusterError("need at least one node")
    cost = cost or CostModel()
    num_pages = (max(addrs) // page_size + 1) if addrs else 1
    shards = shard_items(len(addrs), nodes, schedule, chunk_size)
    cluster = Cluster(nodes, net_cost=net_cost, recorder=recorder)
    partials: list[dict[str, int]] = []
    for node, idxs in zip(cluster.nodes, shards):
        if idxs:
            mmu = MMU(PhysicalMemory(num_frames, page_size),
                      page_size=page_size, tlb_entries=tlb_entries)
            mmu.create_process(0, num_pages)
            batch = mmu.translate_many([addrs[i] for i in idxs], pid=0)
            misses = batch.accesses - batch.tlb_hits
            cycles = (batch.accesses * cost.tlb_time
                      + misses * cost.memory_time
                      + batch.page_faults * cost.fault_service_time)
            node.compute(cycles)
            partials.append({
                "accesses": int(batch.accesses),
                "tlb_hits": int(batch.tlb_hits),
                "tlb_misses": int(misses),
                "page_faults": int(batch.page_faults),
                "evictions": int(batch.evictions),
                "writebacks": int(batch.writebacks),
            })
        else:
            partials.append({})
    merged = _reduce_to_root(cluster, partials)
    cluster.barrier()
    return MapReduceResult(
        engine="translate", schedule=schedule, num_nodes=nodes,
        total_items=len(addrs), shard_sizes=[len(s) for s in shards],
        merged=merged, makespan=cluster.makespan,
        node_counters=cluster.breakdowns(),
        net_counters=cluster.net_stats().counters())
