"""The record APIs' rows, pinned by digest.

``Cache.run_trace``, ``CacheHierarchy.run_trace`` and ``MMU.run_trace``
return the rows a homework checker compares a hand trace against. Each
test hashes every field of every row (with the final stats and, where
a recorder is attached, every recorded event) over a fixed and a seeded
random set of configurations, and compares the hash with a literal. A
change to how these rows are computed must leave the digests as they
are; a deliberate change to what a row says updates them here.
"""

import hashlib
import random
from dataclasses import astuple

from repro.memory import Cache, CacheConfig, CacheHierarchy
from repro.obs import TraceRecorder
from repro.vm import MMU, PhysicalMemory

from .memory.test_cache_probe import ALL_CONFIGS
from .memory.test_access_many import TRACES

DIGESTS = {
    "cache":
        "198b7ac8ce1bd3163d70732aa56048054913a4432a37a634e45400ee6b89af77",
    "hierarchy":
        "a4f0809a1eb3246547d498adeeecab1dfc601aa32b7c4ad6616ea043c5575692",
    "mmu":
        "b021fa16a4bfb431b3c052506b58690a1e940eac1a01f637f0047bfc5a2e39bb",
}


class Digest:
    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, *values):
        self._hash.update(repr(values).encode())
        self._hash.update(b"\n")

    def events(self, rec):
        for e in rec.events():
            self.add(e.ph, e.name, e.ts, e.pid, e.tid, e.dur, e.cat, e.args)

    def hexdigest(self):
        return self._hash.hexdigest()


def recorder():
    # "all" keeps every counter sample and instant unfolded
    return TraceRecorder(policies={"*": "all"})


def random_cache_configs(seed=29, n=60):
    """Geometries with prefetch, random replacement, no-write-allocate
    and 1-set caches, over small address spaces so prefetches run off
    the top."""
    rng = random.Random(seed)
    configs = []
    for i in range(n):
        num_lines = 1 << rng.randrange(0, 6)
        associativity = (num_lines if i % 4 == 0       # one set
                         else 1 << rng.randrange(0, num_lines.bit_length()))
        configs.append(CacheConfig(
            num_lines=num_lines, block_size=1 << rng.randrange(2, 6),
            associativity=associativity,
            replacement=rng.choice(["lru", "fifo", "random"]),
            write_policy=rng.choice(["write-back", "write-through"]),
            write_allocate=rng.random() < 0.6,
            prefetch_next_line=rng.random() < 0.5,
            address_bits=rng.randrange(11, 14), seed=rng.randrange(100)))
    return configs


def random_trace(rng, address_bits, n=300):
    top = 1 << address_bits
    hot = [rng.randrange(top) for _ in range(6)]
    trace = []
    for _ in range(n):
        address = (rng.choice(hot) + rng.randrange(64)) % top \
            if rng.random() < 0.6 else rng.randrange(top)
        trace.append((address, "store" if rng.random() < 0.35 else "load"))
    return trace


def test_cache_rows_are_pinned():
    digest = Digest()
    for config_name in sorted(ALL_CONFIGS):
        for trace_name in sorted(TRACES):
            rec = recorder()
            cache = Cache(ALL_CONFIGS[config_name], recorder=rec)
            for row in cache.run_trace(TRACES[trace_name]):
                digest.add(astuple(row), row.miss)
            digest.add(astuple(cache.stats), cache._clock)
            digest.events(rec)
    rng = random.Random(7)
    for config in random_cache_configs():
        rec = recorder()
        cache = Cache(config, recorder=rec)
        for row in cache.run_trace(random_trace(rng, config.address_bits)):
            digest.add(astuple(row))
        digest.add(astuple(cache.stats), cache._clock,
                   [cache.set_state(i) for i in range(config.num_sets)])
        digest.events(rec)
    assert digest.hexdigest() == DIGESTS["cache"]


HIERARCHIES = [
    [CacheConfig(num_lines=8, block_size=16),
     CacheConfig(num_lines=32, block_size=16, associativity=4)],
    [CacheConfig(num_lines=8, block_size=16, associativity=2,
                 write_policy="write-through", write_allocate=False),
     CacheConfig(num_lines=16, block_size=32, replacement="random", seed=5),
     CacheConfig(num_lines=64, block_size=32, associativity=8,
                 replacement="fifo")],
    [CacheConfig(num_lines=4, block_size=16, prefetch_next_line=True),
     CacheConfig(num_lines=16, block_size=16, associativity=16,
                 prefetch_next_line=True)],
]


def test_hierarchy_rows_are_pinned():
    digest = Digest()
    rng = random.Random(11)
    for configs in HIERARCHIES:
        for trace in (TRACES["mixed_kinds"], TRACES["random"],
                      random_trace(rng, 13, n=500)):
            rec = recorder()
            hierarchy = CacheHierarchy(configs, recorder=rec)
            for row in hierarchy.run_trace(trace):
                digest.add(astuple(row))
            digest.add(hierarchy.memory_accesses,
                       [astuple(level.stats) for level in hierarchy.levels])
            digest.events(rec)
    assert digest.hexdigest() == DIGESTS["hierarchy"]


def mmu_trace(rng, pids, num_pages, page, n=400):
    """Page-local runs per process, random writes, frequent switches."""
    trace = []
    while len(trace) < n:
        pid = rng.choice(pids)
        for _ in range(rng.randrange(1, 10)):
            vaddr = rng.randrange(num_pages) * page + rng.randrange(page)
            trace.append((pid, vaddr, rng.random() < 0.35))
    return trace[:n]


def test_mmu_rows_are_pinned():
    digest = Digest()
    rng = random.Random(3)
    page = 256
    for tagged in (False, True):
        for replacement in ("lru", "fifo"):
            for procs in (1, 2, 3):
                for _ in range(3):
                    rec = recorder()
                    frames = rng.randrange(2, 7)
                    mmu = MMU(PhysicalMemory(frames, page), page_size=page,
                              tlb_entries=rng.choice([1, 2, 4]),
                              tagged_tlb=tagged, replacement=replacement,
                              recorder=rec)
                    pids = list(range(1, procs + 1))
                    num_pages = rng.randrange(frames, 3 * frames)
                    for pid in pids:
                        mmu.create_process(pid, num_pages)
                    trace = mmu_trace(rng, pids, num_pages, page)
                    for row in mmu.run_trace(trace):
                        digest.add(astuple(row))
                    digest.add(astuple(mmu.stats), astuple(mmu.tlb.stats),
                               mmu.swap.pages_out, mmu.swap.pages_in)
                    digest.events(rec)
    assert digest.hexdigest() == DIGESTS["mmu"]
