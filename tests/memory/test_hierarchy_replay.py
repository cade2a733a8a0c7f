"""``CacheHierarchy.replay`` must agree exactly with a loop over
``probe``.

The replay collapses accesses to a line still holding its block into a
dict lookup and a tag compare, and applies their effects (L1 clock, hit
counts, ``last_used``, write-through traffic) before the next scalar
probe, so every level's full state has to match the access-by-access
walk after every batch, under every replacement and write policy.
"""

import random
from dataclasses import astuple

import pytest

from repro.memory import CacheConfig
from repro.memory.multilevel import CacheHierarchy
from repro.obs import TraceRecorder


def make_hierarchy(replacement, write_policy, allocate, prefetch,
                   recorder=None):
    return CacheHierarchy(
        [CacheConfig(num_lines=8, block_size=16, associativity=2,
                     replacement=replacement, write_policy=write_policy,
                     write_allocate=allocate, prefetch_next_line=prefetch,
                     seed=3),
         CacheConfig(num_lines=32, block_size=16, associativity=4,
                     hit_time=10, replacement=replacement,
                     write_policy=write_policy, write_allocate=allocate)],
        recorder=recorder)


def full_state(hierarchy):
    return (hierarchy.memory_accesses,
            [(cache._clock, astuple(cache.stats),
              [astuple(line) for ways in cache.sets for line in ways])
             for cache in hierarchy.levels])


def walk(hierarchy, addrs, stores):
    counts = [0] * (len(hierarchy.levels) + 1)
    for addr, store in zip(addrs, stores):
        counts[hierarchy.probe(addr, "store" if store else "load")] += 1
    return counts


def make_batches(seed):
    """Line-local runs over a few times L1's capacity, in batches."""
    rng = random.Random(seed)
    batches = []
    for _ in range(30):
        addrs, stores = [], []
        for _ in range(rng.randrange(0, 40)):
            block = rng.randrange(24 if rng.random() < 0.8 else 80)
            addrs.append(block * 16 + rng.randrange(16))
            stores.append(rng.random() < 0.3)
        batches.append((addrs, stores))
    return batches


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("prefetch", [False, True])
@pytest.mark.parametrize("write_policy,allocate", [
    ("write-back", True), ("write-through", True), ("write-through", False)])
@pytest.mark.parametrize("replacement", ["lru", "fifo", "random"])
def test_matches_probe_loop(seed, replacement, write_policy, allocate,
                            prefetch):
    scalar, batched = (make_hierarchy(replacement, write_policy, allocate,
                                      prefetch) for _ in range(2))
    for addrs, stores in make_batches(seed):
        assert batched.replay(addrs, stores) == walk(scalar, addrs, stores)
        assert full_state(batched) == full_state(scalar)
    assert scalar.levels[0].stats.evictions


def test_traced_replay_collapses_nothing():
    """With a recorder, every L1 access keeps its counter sample."""
    scalar, batched = (make_hierarchy("lru", "write-back", True, False,
                                      TraceRecorder()) for _ in range(2))
    addrs = [0, 4, 8, 16, 20, 0, 4, 256, 0]
    stores = [False, True] * 4 + [False]
    walk(scalar, addrs, stores)
    batched.replay(addrs, stores)
    assert full_state(batched) == full_state(scalar)
    events = [[(e.name, e.ts, e.args) for e in h.levels[0].recorder.events()]
              for h in (batched, scalar)]
    assert events[0] == events[1]
