"""``Cache.probe`` / ``CacheHierarchy.probe`` must agree exactly with
``access()``.

``probe`` is the scalar fast path every bus access takes; ``access``
stays the homework oracle. Every observable — stats, every line's
fields, the clock, the per-set RNG streams, the out-of-range error, and
the recorded trace events — has to match step for step.
"""

from dataclasses import astuple

import pytest

from repro.errors import CacheConfigError
from repro.memory import Cache, CacheConfig, CacheHierarchy
from repro.obs import TraceRecorder

from .test_access_many import CONFIGS, TRACES
from .test_vectorcache import hot_loop_trace

EXTRA_CONFIGS = {
    "write-through-no-allocate": CacheConfig(
        num_lines=32, block_size=16, write_policy="write-through",
        write_allocate=False),
    "random-4-way-prefetch": CacheConfig(
        num_lines=32, block_size=16, associativity=4, replacement="random",
        seed=11, prefetch_next_line=True),
    "fifo-2-way-write-through-prefetch": CacheConfig(
        num_lines=16, block_size=32, associativity=2, replacement="fifo",
        write_policy="write-through", prefetch_next_line=True),
    "fully-associative-random": CacheConfig(
        num_lines=8, block_size=16, associativity=8, replacement="random",
        seed=3),
}
ALL_CONFIGS = {**CONFIGS, **EXTRA_CONFIGS}


def items(trace):
    return [item if isinstance(item, tuple) else (item, "load")
            for item in trace]


def full_state(cache):
    return (cache.stats, cache._clock,
            [[astuple(line) for line in ways] for ways in cache.sets],
            {i: rng.getstate() for i, rng in cache._set_rngs.items()})


def recorder():
    # "all" keeps every counter sample and eviction instant unfolded
    return TraceRecorder(policies={"*": "all"})


@pytest.mark.parametrize("config_name", sorted(ALL_CONFIGS))
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_probe_agrees_with_access(config_name, trace_name):
    config = ALL_CONFIGS[config_name]
    fast, slow = Cache(config), Cache(config)
    for address, kind in items(TRACES[trace_name]):
        assert fast.probe(address, kind) == slow.access(address, kind).hit
    assert full_state(fast) == full_state(slow)


@pytest.mark.parametrize("config_name", sorted(ALL_CONFIGS))
def test_probe_records_the_same_events(config_name):
    config = ALL_CONFIGS[config_name]
    fast_rec, slow_rec = recorder(), recorder()
    fast = Cache(config, recorder=fast_rec)
    slow = Cache(config, recorder=slow_rec)
    for address, kind in items(TRACES["mixed_kinds"] + TRACES["random"]):
        fast.probe(address, kind)
        slow.access(address, kind)
    assert full_state(fast) == full_state(slow)
    assert len(fast_rec) > 0
    assert list(fast_rec.events()) == list(slow_rec.events())


def test_out_of_range_raises_like_access():
    config = CacheConfig(num_lines=16, block_size=16, address_bits=16)
    fast, slow = Cache(config), Cache(config)
    for cache, op in ((fast, fast.probe), (slow, slow.access)):
        op(0x10, "load")
        with pytest.raises(CacheConfigError, match="exceeds 16 bits"):
            op(1 << 16, "store")
        with pytest.raises(CacheConfigError, match="exceeds 16 bits"):
            op(-1, "load")
    # the failing accesses still ticked the clock, and changed nothing else
    assert fast._clock == slow._clock == 3
    assert full_state(fast) == full_state(slow)


def test_access_many_keeps_one_sample_per_batch():
    """Batch paths loop over probe but still sample once per batch."""
    for config_name, trace, run in (
            ("random-4-way-prefetch", TRACES["mixed_kinds"],
             Cache.access_many),
            # the vectorized engine probes each run head of this
            # skewed trace, evicting as it goes
            ("fully-associative-random", hot_loop_trace(400, seed=5),
             Cache.simulate_trace)):
        config = ALL_CONFIGS[config_name]
        batch_rec = recorder()
        batch = Cache(config, recorder=batch_rec)
        run(batch, trace)
        samples = [e for e in batch_rec.events() if e.ph == "C"]
        assert len(samples) == 1
        assert not [e for e in batch_rec.events() if e.ph == "i"]
        stepped = Cache(config)
        stepped.run_trace(trace)
        assert full_state(batch) == full_state(stepped)
        assert batch.recorder is batch_rec


HIERARCHIES = {
    "default-two-level": [
        CacheConfig(num_lines=64, block_size=16, associativity=2),
        CacheConfig(num_lines=256, block_size=16, associativity=4,
                    hit_time=10)],
    "three-level-mixed": [
        CacheConfig(num_lines=8, block_size=16, replacement="random",
                    seed=5),
        CacheConfig(num_lines=32, block_size=16, associativity=2,
                    prefetch_next_line=True),
        CacheConfig(num_lines=64, block_size=32, associativity=4,
                    replacement="fifo", write_policy="write-through",
                    write_allocate=False)],
}


@pytest.mark.parametrize("name", sorted(HIERARCHIES))
@pytest.mark.parametrize("trace_name", ["mixed_kinds", "random",
                                        "interleaved", "columnwise"])
def test_hierarchy_probe_agrees_with_access(name, trace_name):
    fast_rec, slow_rec = recorder(), recorder()
    fast = CacheHierarchy(HIERARCHIES[name], recorder=fast_rec)
    slow = CacheHierarchy(HIERARCHIES[name], recorder=slow_rec)
    for address, kind in items(TRACES[trace_name]):
        assert (fast.probe(address, kind)
                == slow.access(address, kind).hit_level)
    assert fast.memory_accesses == slow.memory_accesses
    for f, s in zip(fast.levels, slow.levels):
        assert full_state(f) == full_state(s)
    assert list(fast_rec.events()) == list(slow_rec.events())
