"""A traced ``CacheHierarchy.replay`` records what ``simulate_arrays``
records.

Both engines keep their levels quiet for the batch and then take one
counter sample at each level the batch reached, so with every sample
kept the two event streams, like the two end states, are identical:
over random hierarchies without prefetching, and for empty batches and
batches that hit L1 throughout.
"""

import random
from dataclasses import astuple

import numpy as np
import pytest

from repro.memory import CacheConfig
from repro.memory.multilevel import CacheHierarchy
from repro.obs import TraceRecorder


def random_configs(rng):
    block = rng.choice((8, 16))
    lines = rng.choice((4, 8, 16))
    configs = []
    for hit_time in (1, 10, 40)[:rng.choice((1, 2, 3))]:
        allocate = rng.random() < 0.7
        configs.append(CacheConfig(
            num_lines=lines, block_size=block,
            associativity=rng.choice([a for a in (1, 2, 4) if a <= lines]),
            replacement=rng.choice(("lru", "fifo", "random")),
            write_policy=rng.choice(("write-back", "write-through")),
            write_allocate=allocate, hit_time=hit_time,
            seed=rng.randrange(100)))
        lines *= rng.choice((1, 2, 4))
    return configs


def full_state(hierarchy):
    return (hierarchy.memory_accesses,
            [(cache._clock, astuple(cache.stats),
              [astuple(line) for ways in cache.sets for line in ways])
             for cache in hierarchy.levels])


def events(hierarchy):
    return [(e.name, e.ts, e.args)
            for e in hierarchy.levels[0].recorder.events()]


def make_batches(rng, block):
    batches = []
    for _ in range(12):
        addrs = [rng.randrange(64) * block + rng.randrange(block)
                 for _ in range(rng.choice((0, 1, 5, 30)))]
        stores = [rng.random() < 0.3 for _ in addrs]
        batches.append((addrs, stores))
        if addrs:
            # the batch's last block again: every access an L1 hit
            again = [addrs[-1]] * rng.randrange(1, 6)
            batches.append((again, [rng.random() < 0.5 for _ in again]))
    return batches


@pytest.mark.parametrize("seed", range(12))
def test_traced_replay_records_what_simulate_arrays_records(seed):
    rng = random.Random(seed)
    configs = random_configs(rng)
    replayed, simulated = (
        CacheHierarchy(configs, recorder=TraceRecorder(policies={"*": "all"}))
        for _ in range(2))
    for addrs, stores in make_batches(rng, configs[0].block_size):
        counts = replayed.replay(addrs, stores)
        hit_level = simulated.simulate_arrays(
            np.asarray(addrs, dtype=np.int64), np.asarray(stores, dtype=bool))
        assert counts == [int((hit_level == level).sum())
                          for level in (*range(len(configs)), -1)]
        assert full_state(replayed) == full_state(simulated)
        assert events(replayed) == events(simulated)
    assert events(replayed)
