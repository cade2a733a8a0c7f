"""The vectorized trace engine must be bit-identical to the scalar oracle.

``Cache.simulate_trace`` (round-lockstep numpy engine) is checked against
folding ``Cache.access`` over the same trace: aggregate stats, the
per-access hit mask, the final line state of every set, and the LRU
clock all have to match — for every replacement policy × write policy ×
write-allocate × associativity combination, on randomized traces and on
hot-loop traces of long same-line runs.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import CacheConfigError
from repro.memory import Cache, CacheConfig, vectorcache
from repro.memory.cache import Line
from repro.memory.multilevel import CacheHierarchy
from repro.memory.trace import random_access, stride_sweep


def make_trace(n, span, seed, store_fraction):
    rng = random.Random(seed)
    trace = []
    for _ in range(n):
        addr = rng.randrange(span)
        kind = "store" if rng.random() < store_fraction else "load"
        trace.append((addr, kind))
    return trace


def hot_loop_trace(n, seed):
    """A compiled inner loop: the shape the JIT's cached bus replays.

    Each iteration fetches six instructions from two code lines, loads
    and stores a hot stack slot, and touches the next word of an array
    three times the cache's capacity. The first touch of every array
    line is a store followed by a load of the same word, so under
    no-write-allocate a bypassed store miss precedes a load miss of its
    line. Same-line runs are long, carry stores inside them, and crowd
    a few sets.
    """
    rng = random.Random(seed)
    code, stack, array, span = 0x100, 0x7F0, 0x400, 16 * 16 * 3
    trace = []
    i = 0
    while len(trace) < n:
        trace += [(pc, "load") for pc in range(code, code + 24, 4)]
        trace += [(stack, "load"), (stack, "store")]
        addr = array + (4 * i) % span
        if addr % 16 == 0 or rng.random() < 0.3:
            trace.append((addr, "store"))
        trace.append((addr, "load"))
        i += 1
    return trace[:n]


def scalar_oracle(config, trace):
    """Fold Cache.access step by step; return (cache, hit list)."""
    cache = Cache(config)
    hits = [cache.access(addr, kind).hit for addr, kind in trace]
    return cache, hits


def set_state(cache):
    return [[(ln.valid, ln.tag, ln.dirty, ln.last_used, ln.loaded_at)
             for ln in ways] for ways in cache.sets]


CONFIG_GRID = [
    pytest.param(replacement, write_policy, write_allocate, assoc,
                 id=f"{replacement}-{write_policy}-"
                    f"{'alloc' if write_allocate else 'noalloc'}-{assoc}way")
    for replacement in ("lru", "fifo", "random")
    for write_policy in ("write-back", "write-through")
    for write_allocate in (True, False)
    for assoc in (1, 2, 4)
]


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "replacement,write_policy,write_allocate,assoc", CONFIG_GRID)
    @pytest.mark.parametrize("store_fraction", [0.0, 0.4])
    def test_randomized_trace(self, replacement, write_policy,
                              write_allocate, assoc, store_fraction):
        config = CacheConfig(num_lines=16, block_size=16,
                             associativity=assoc, replacement=replacement,
                             write_policy=write_policy,
                             write_allocate=write_allocate, seed=7)
        scattered = make_trace(400, 16 * 16 * 6, seed=assoc * 100 + 1,
                               store_fraction=store_fraction)
        hot = hot_loop_trace(400, seed=assoc * 100 + int(store_fraction * 10))
        # the hot loop crowds one set past 1/8 of the trace, so the
        # associative engines take their skewed-trace (line-run) branch
        sets = Cache(config).layout.divide_many(
            np.array([a for a, _ in hot]))[1]
        assert np.bincount(sets).max() * 8 > len(hot)
        for trace in (scattered, hot):
            oracle, oracle_hits = scalar_oracle(config, trace)

            vec = Cache(config)
            hitmask = vectorcache.simulate_trace(vec, trace)

            assert vec.stats == oracle.stats
            assert hitmask.tolist() == oracle_hits
            assert set_state(vec) == set_state(oracle)
            assert vec._clock == oracle._clock

    def test_plain_address_trace(self):
        config = CacheConfig(num_lines=32, block_size=32, associativity=2)
        trace = list(stride_sweep(500, 24, repeat=2))
        oracle, _ = scalar_oracle(config, [(a, "load") for a in trace])
        vec = Cache(config)
        assert vec.simulate_trace(trace) == oracle.stats

    def test_ndarray_trace(self):
        config = CacheConfig(num_lines=32, block_size=16, associativity=4,
                             replacement="fifo")
        addrs = np.asarray(random_access(800, 8192, seed=5))
        oracle, _ = scalar_oracle(config, [(int(a), "load") for a in addrs])
        vec = Cache(config)
        assert vec.simulate_trace(addrs) == oracle.stats

    def test_resumes_from_existing_state(self):
        """Batch after scalar accesses must see the warmed-up sets."""
        config = CacheConfig(num_lines=16, block_size=16, associativity=2)
        trace = make_trace(300, 4096, seed=11, store_fraction=0.3)
        oracle, _ = scalar_oracle(config, trace)

        vec = Cache(config)
        for addr, kind in trace[:50]:      # warm up via the scalar API
            vec.access(addr, kind)
        vec.simulate_trace(trace[50:])
        assert vec.stats == oracle.stats
        assert set_state(vec) == set_state(oracle)

    def test_empty_trace(self):
        vec = Cache(CacheConfig())
        stats = vec.simulate_trace([])
        assert stats.accesses == 0

    def test_prefetch_falls_back_to_scalar_loop(self):
        config = CacheConfig(num_lines=16, block_size=16,
                             prefetch_next_line=True)
        trace = list(stride_sweep(200, 16))
        oracle, _ = scalar_oracle(config, [(a, "load") for a in trace])
        vec = Cache(config)
        assert vec.simulate_trace(trace) == oracle.stats

    def test_simulate_arrays_rejects_prefetch(self):
        cache = Cache(CacheConfig(prefetch_next_line=True))
        with pytest.raises(CacheConfigError):
            vectorcache.simulate_arrays(
                cache, np.zeros(4, dtype=np.int64),
                np.zeros(4, dtype=bool))

    def test_address_out_of_range(self):
        cache = Cache(CacheConfig(address_bits=16))
        with pytest.raises(Exception, match="exceeds"):
            cache.simulate_trace([1 << 20])
        # a skewed trace is validated whole before its first run head
        # is probed: a bad last address leaves the warmed cache as it was
        cache = Cache(CacheConfig(num_lines=16, block_size=16,
                                  associativity=2, address_bits=16))
        trace = hot_loop_trace(400, seed=3)
        cache.simulate_trace(trace[:100])
        before = (cache._clock, replace(cache.stats), set_state(cache))
        with pytest.raises(CacheConfigError, match="exceeds"):
            cache.simulate_trace(trace[100:] + [(1 << 20, "load")])
        assert (cache._clock, cache.stats, set_state(cache)) == before


class TestSkewedPath:
    def test_probes_run_heads_and_touches_only_their_sets(self,
                                                          monkeypatch):
        """One ``Cache.probe`` per same-line run; untouched sets unread.

        A hot loop confined to sets 0 and 1 of an 8-set, 2-way cache:
        code on two lines, a stack slot, and an array sweeping lines
        that map to the same two sets, so the ways keep evicting.
        """
        config = CacheConfig(num_lines=16, block_size=16, associativity=2)
        trace = []
        for i in range(150):
            trace += [(pc, "load") for pc in range(0x100, 0x118, 4)]
            trace += [(0x184, "load"), (0x184, "store")]
            line = (i // 4) % 12      # array line: set = line % 2
            addr = 0x800 + (line // 2) * 0x80 + (line % 2) * 16 + i % 4 * 4
            trace += [(addr, "store"), (addr, "load")]

        # run heads, counted the scalar way: an access to a set whose
        # previous access had a different tag (write-allocate config)
        last_tag, heads = {}, 0
        for addr, _ in trace:
            index, tag = (addr >> 4) % 8, addr >> 7
            heads += last_tag.get(index) != tag
            last_tag[index] = tag

        class TrippedLine(Line):
            armed = False

            def __setattr__(self, name, value):
                if self.armed:
                    raise AssertionError(f"touched {name}")
                super().__setattr__(name, value)

        cache = Cache(config)
        for ways in cache.sets[2:]:
            ways[:] = [TrippedLine() for _ in ways]
        TrippedLine.armed = True
        probes = []
        probe = Cache.probe

        def counting_probe(self, address, kind="load"):
            probes.append(address)
            return probe(self, address, kind)

        monkeypatch.setattr(Cache, "probe", counting_probe)
        addrs, stores = vectorcache.as_trace_arrays(trace)
        hitmask = vectorcache.simulate_arrays(cache, addrs, stores)
        TrippedLine.armed = False
        monkeypatch.undo()

        assert len(probes) == heads < len(trace) // 2
        oracle, oracle_hits = scalar_oracle(config, trace)
        assert hitmask.tolist() == oracle_hits
        assert cache.stats == oracle.stats
        assert set_state(cache) == set_state(oracle)
        assert cache._clock == oracle._clock


class TestRandomPolicyStreams:
    """The per-set RNG makes victim choices independent of interleaving."""

    def test_scalar_and_batch_agree(self):
        config = CacheConfig(num_lines=16, block_size=16, associativity=4,
                             replacement="random", seed=3)
        trace = make_trace(500, 8192, seed=2, store_fraction=0.2)
        oracle, _ = scalar_oracle(config, trace)
        vec = Cache(config)
        vec.simulate_trace(trace)
        assert vec.stats == oracle.stats
        assert set_state(vec) == set_state(oracle)

    def test_interleaving_insensitive(self):
        """Reordering accesses *across* sets leaves per-set victims alone.

        With one global RNG stream the interleaving would change which
        draw each set sees; per-set streams keep the final state of any
        untouched ordering-within-set identical.
        """
        config = CacheConfig(num_lines=8, block_size=16, associativity=2,
                             replacement="random", seed=9)
        layout_sets = config.num_lines // config.associativity
        rng = random.Random(4)
        trace = [(rng.randrange(4096), "load") for _ in range(300)]

        a = Cache(config)
        for addr, kind in trace:
            a.access(addr, kind)

        # stable-partition the trace by set: per-set order preserved,
        # cross-set interleaving completely changed
        def set_of(addr):
            return (addr // config.block_size) % layout_sets

        reordered = [p for s in range(layout_sets)
                     for p in trace if set_of(p[0]) == s]
        b = Cache(config)
        for addr, kind in reordered:
            b.access(addr, kind)

        # clock stamps differ under reordering, but which lines live in
        # each set (the victim choices) must not
        def contents(cache):
            return [[(ln.valid, ln.tag, ln.dirty) for ln in ways]
                    for ways in cache.sets]

        assert contents(a) == contents(b)
        assert a.stats.evictions == b.stats.evictions


class TestHierarchy:
    def test_multilevel_matches_run_trace(self):
        configs = [
            CacheConfig(num_lines=8, block_size=16, associativity=2),
            CacheConfig(num_lines=64, block_size=16, associativity=4,
                        replacement="fifo"),
        ]
        trace = random_access(1000, 32768, seed=6)

        oracle = CacheHierarchy(configs, memory_latency=80)
        oracle.run_trace(trace)
        vec = CacheHierarchy(configs, memory_latency=80)
        levels = vec.simulate_trace(trace)

        for lo, lv in zip(oracle.levels, vec.levels):
            assert lo.stats == lv.stats
        assert vec.memory_accesses == oracle.memory_accesses
        # hit levels: -1 rows are exactly the memory accesses
        assert int((levels == -1).sum()) == vec.memory_accesses

    def test_prefetch_level_falls_back(self):
        configs = [
            CacheConfig(num_lines=8, block_size=16, prefetch_next_line=True),
            CacheConfig(num_lines=64, block_size=16, associativity=2),
        ]
        trace = list(stride_sweep(400, 16))
        oracle = CacheHierarchy(configs)
        oracle.run_trace(trace)
        vec = CacheHierarchy(configs)
        vec.simulate_trace(trace)
        for lo, lv in zip(oracle.levels, vec.levels):
            assert lo.stats == lv.stats


class TestSlots:
    """Hot per-access records must not carry a per-instance __dict__."""

    def test_no_dict_on_hot_records(self):
        from repro.memory.address import AddressLayout
        from repro.memory.cache import AccessResult, Line

        cache = Cache(CacheConfig())
        result = cache.access(0x40)
        parts = AddressLayout(32, 16, 4).divide(0x1234)
        line = cache.sets[0][0]
        assert isinstance(result, AccessResult)
        assert isinstance(line, Line)
        for obj in (result, parts, line):
            assert not hasattr(obj, "__dict__")
