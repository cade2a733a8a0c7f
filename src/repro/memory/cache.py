"""The cache simulator: direct-mapped and set-associative, as taught.

Models exactly the machinery the caching homeworks trace by hand:
valid/dirty bits per line, tag comparison after address division,
LRU (and FIFO/random) replacement within a set, and the write policies
(write-back vs write-through, with or without write-allocate). Every
access returns a :class:`AccessResult` describing what happened, so a
homework checker can compare a student's hand trace step by step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Literal

from repro._util import is_power_of_two
from repro.errors import CacheConfigError
from repro.memory.address import AddressLayout, AddressParts

ReplacementPolicy = Literal["lru", "fifo", "random"]
WritePolicy = Literal["write-back", "write-through"]
AccessKind = Literal["load", "store"]


@dataclass(frozen=True)
class CacheConfig:
    """Cache geometry and policies.

    ``num_lines`` is the total line count; associativity 1 is direct
    mapped, ``num_lines`` fully associative.
    """
    num_lines: int = 64
    block_size: int = 32
    associativity: int = 1
    replacement: ReplacementPolicy = "lru"
    write_policy: WritePolicy = "write-back"
    write_allocate: bool = True
    address_bits: int = 32
    hit_time: int = 1           # cycles, for AMAT computations
    #: base seed for the random policy; each set derives its own stream
    #: from it, so victim choices depend only on that set's history
    seed: int = 0
    #: on a load miss, also fill the next sequential block ("past
    #: accesses as a predictor for future behavior", §III-A)
    prefetch_next_line: bool = False

    def __post_init__(self) -> None:
        if not is_power_of_two(self.num_lines):
            raise CacheConfigError("num_lines must be a power of two")
        if not is_power_of_two(self.associativity):
            raise CacheConfigError("associativity must be a power of two")
        if self.associativity > self.num_lines:
            raise CacheConfigError("associativity exceeds line count")

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    @property
    def capacity_bytes(self) -> int:
        return self.num_lines * self.block_size

    @property
    def layout(self) -> AddressLayout:
        return AddressLayout(self.address_bits, self.block_size,
                             self.num_sets)


@dataclass(slots=True)
class Line:
    """One cache line's metadata (the data bytes don't matter here)."""
    valid: bool = False
    tag: int = 0
    dirty: bool = False
    last_used: int = 0     # LRU timestamp
    loaded_at: int = 0     # FIFO timestamp


@dataclass(frozen=True, slots=True)
class AccessResult:
    """What one access did — the row of a homework trace table."""
    address: int
    kind: AccessKind
    parts: AddressParts
    hit: bool
    evicted_tag: int | None = None   # tag replaced, if any
    wrote_back: bool = False         # eviction flushed a dirty line
    bypassed: bool = False           # store miss without write-allocate

    @property
    def miss(self) -> bool:
        return not self.hit


@dataclass
class CacheStats:
    """Aggregated counters."""
    load_hits: int = 0
    load_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    memory_writes: int = 0   # write-through traffic + writebacks
    prefetches: int = 0      # blocks filled speculatively

    @property
    def accesses(self) -> int:
        return (self.load_hits + self.load_misses
                + self.store_hits + self.store_misses)

    @property
    def hits(self) -> int:
        return self.load_hits + self.store_hits

    @property
    def misses(self) -> int:
        return self.load_misses + self.store_misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate if self.accesses else 0.0


class Cache:
    """A single cache level."""

    def __init__(self, config: CacheConfig | None = None, *,
                 recorder=None, trace_name: str = "cache",
                 **kwargs) -> None:
        from repro.obs.recorder import coalesce
        self.config = config or CacheConfig(**kwargs)
        self.layout = self.config.layout
        self.sets: list[list[Line]] = [
            [Line() for _ in range(self.config.associativity)]
            for _ in range(self.config.num_sets)]
        self.stats = CacheStats()
        self._clock = 0
        self._set_rngs: dict[int, random.Random] = {}
        #: old (tag, dirty) of the line the last allocating miss
        #: replaced, None if the way was empty (read by access())
        self._evicted: tuple[int, bool] | None = None
        #: the line the last probe hit or filled, None if a store miss
        #: allocated nothing (read by CacheHierarchy.replay)
        self._line: Line | None = None
        #: shared trace recorder (see repro.obs); NULL_RECORDER when off
        self.recorder = coalesce(recorder)
        self.trace_name = trace_name
        # trace handles, resolved on first traced access (the recorder
        # may be attached after construction by the bus wiring)
        self._ctr_series = None
        self._ev_series = None
        # address division constants for probe(), derived once
        self._offset_bits = self.layout.offset_bits
        self._tag_shift = self.layout.offset_bits + self.layout.index_bits
        self._index_mask = self.config.num_sets - 1
        self._address_limit = 1 << self.config.address_bits

    def _record_counters(self, *, evicted: bool = False) -> None:
        """Counter sample (+ eviction instant) after a traced access."""
        stats = self.stats
        if self._ctr_series is None:
            rec = self.recorder
            self._ctr_series = rec.counter_series(
                self.trace_name, ("hits", "misses", "evictions"),
                pid="memory", tid=self.trace_name, cat="cache")
            self._ev_series = rec.instant_series(
                "eviction", pid="memory", tid=self.trace_name,
                cat="cache")
        if evicted:
            self._ev_series.hit(self._clock)
        self._ctr_series.sample(
            self._clock, (stats.hits, stats.misses, stats.evictions))

    # -- core access ---------------------------------------------------------

    def access(self, address: int, kind: AccessKind = "load") -> AccessResult:
        """Perform one load/store; returns what happened (hit, eviction...).

        A view over :meth:`probe`, which makes the transition: the row
        is read back from its hit, the write policy (a store miss
        without write-allocate bypasses the cache) and the old contents
        of the victim line a miss filled.
        """
        hit = self.probe(address, kind)
        parts = self.layout.divide(address)
        if hit:
            return AccessResult(address, kind, parts, hit=True)
        if kind == "store" and not self.config.write_allocate:
            return AccessResult(address, kind, parts, hit=False,
                                bypassed=True)
        tag, dirty = self._evicted or (None, False)
        return AccessResult(address, kind, parts, hit=False,
                            evicted_tag=tag, wrote_back=dirty)

    def probe(self, address: int, kind: AccessKind = "load") -> bool:
        """Perform one load/store; return only whether it hit.

        The cache's one transition: clock tick before the bounds check,
        hit scan, write policy, victim choice and per-set RNG draws,
        prefetch and counter samples. It leaves the line it hit or
        filled in ``_line`` (None when a store miss allocates nothing)
        and, on an allocating miss, the victim's old ``(tag, dirty)``
        (None for an empty way) in ``_evicted``. The memory buses call
        it for every access (the virtual bus, through
        :meth:`CacheHierarchy.replay`, for every access not proved an L1
        hit), and every other path reaches line state through it:
        :meth:`access` builds its :class:`AccessResult` over it, and
        :meth:`access_many`, the hierarchy and the run heads of the
        vectorized engine's skewed-trace replay loop over it.
        """
        self._clock += 1
        if not 0 <= address < self._address_limit:
            raise CacheConfigError(
                f"address {address:#x} exceeds "
                f"{self.config.address_bits} bits")
        clock = self._clock
        config = self.config
        stats = self.stats
        tag = address >> self._tag_shift
        index = (address >> self._offset_bits) & self._index_mask
        ways = self.sets[index]

        for line in ways:
            if line.valid and line.tag == tag:
                line.last_used = clock
                self._line = line
                if kind == "store":
                    stats.store_hits += 1
                    if config.write_policy == "write-back":
                        line.dirty = True
                    else:
                        stats.memory_writes += 1
                else:
                    stats.load_hits += 1
                if self.recorder.enabled:
                    self._record_counters()
                return True

        if kind == "store":
            stats.store_misses += 1
            if not config.write_allocate:
                stats.memory_writes += 1
                self._line = None
                if self.recorder.enabled:
                    self._record_counters()
                return False
        else:
            stats.load_misses += 1

        victim = self._evict(ways, index)
        evicted = victim.valid
        self._evicted = (victim.tag, victim.dirty) if evicted else None
        self._line = victim
        victim.valid = True
        victim.tag = tag
        victim.last_used = clock
        victim.loaded_at = clock
        victim.dirty = False
        if kind == "store":
            if config.write_policy == "write-back":
                victim.dirty = True
            else:
                stats.memory_writes += 1
        elif kind == "load" and config.prefetch_next_line:
            self._prefetch(address + config.block_size)
        if self.recorder.enabled:
            self._record_counters(evicted=evicted)
        return False

    def _prefetch(self, address: int) -> None:
        """Fill a block without counting it as a demand access."""
        if address >= self._address_limit:
            return
        tag = address >> self._tag_shift
        index = (address >> self._offset_bits) & self._index_mask
        ways = self.sets[index]
        for line in ways:
            if line.valid and line.tag == tag:
                return   # already resident
        victim = self._evict(ways, index)
        victim.valid = True
        victim.tag = tag
        victim.dirty = False
        # prefetched lines enter cold (LRU within the set), so a useless
        # prefetch is the first thing evicted
        victim.loaded_at = self._clock
        victim.last_used = 0
        self.stats.prefetches += 1

    def _evict(self, ways: list[Line], index: int) -> Line:
        """Choose the way a fill of set ``index`` replaces, and count its
        eviction and write-back; the caller fills it."""
        for line in ways:
            if not line.valid:
                return line
        policy = self.config.replacement
        if policy == "lru":
            victim = min(ways, key=lambda l: l.last_used)
        elif policy == "fifo":
            victim = min(ways, key=lambda l: l.loaded_at)
        else:
            victim = ways[self._set_rng(index).randrange(len(ways))]
        stats = self.stats
        stats.evictions += 1
        if victim.dirty:
            stats.writebacks += 1
            stats.memory_writes += 1
        return victim

    def _set_rng(self, index: int) -> random.Random:
        """The ``random`` policy's per-set RNG stream.

        Each set draws victims from its own stream seeded by
        ``(config.seed, set index)``, so the k-th replacement in a set
        picks the same way no matter how accesses to *other* sets are
        interleaved — scalar, :meth:`access_many`, and the vectorized
        per-set engine all reproduce identical victim choices.
        """
        index = int(index)     # numpy ints can't seed random.Random
        rng = self._set_rngs.get(index)
        if rng is None:
            rng = self._set_rngs[index] = random.Random(
                self.config.seed * 1_000_003 + index)
        return rng

    # -- drivers -----------------------------------------------------------------

    def run_trace(self, accesses: Iterable[int | tuple[int, AccessKind]]
                  ) -> list[AccessResult]:
        """Run a whole trace; items are addresses or (address, kind)."""
        results = []
        for item in accesses:
            if isinstance(item, tuple):
                addr, kind = item
            else:
                addr, kind = item, "load"
            results.append(self.access(addr, kind))
        return results

    def access_many(self, accesses: Iterable[int | tuple[int, AccessKind]]
                    ) -> CacheStats:
        """Run a whole trace aggregating stats only.

        A loop over :meth:`probe`, the transition :meth:`access` also
        runs, so hits, evictions, clock and RNG draws are the
        step-by-step API's, with one counter sample per batch instead
        of one per access. Returns the
        cache's cumulative :class:`CacheStats`. Keep using
        :meth:`access`/:meth:`run_trace` when the per-access rows matter
        (homework checkers), and :meth:`simulate_trace` for long traces.
        """
        from repro.obs.recorder import NULL_RECORDER
        recorder = self.recorder
        self.recorder = NULL_RECORDER      # one sample per batch, below
        try:
            for item in accesses:
                if isinstance(item, tuple):
                    self.probe(*item)
                else:
                    self.probe(item)
        finally:
            self.recorder = recorder
        if recorder.enabled:
            self._record_counters()
        return self.stats

    def simulate_trace(self, accesses) -> CacheStats:
        """Run a whole trace through the vectorized engine.

        Same cumulative :class:`CacheStats` — and the same final set
        state, clock, and (for the ``random`` policy) victim choices —
        as :meth:`access`/:meth:`access_many`, but computed in numpy
        batch per set instead of per access, so 100k-address traces run
        at array speed (see :mod:`repro.memory.vectorcache` and bench
        E14). Accepts the same trace shapes as :meth:`run_trace` plus
        plain numpy address arrays.

        Prefetching caches fall back to :meth:`access_many` (a prefetch
        reaches into a *different* set, which breaks the engine's
        per-set independence). Unlike the scalar paths, the whole trace
        is validated against ``address_bits`` before any state changes.
        """
        from repro.memory import vectorcache
        if self.config.prefetch_next_line:
            return self.access_many(accesses)
        addrs, stores = vectorcache.as_trace_arrays(accesses)
        vectorcache.simulate_arrays(self, addrs, stores)
        if self.recorder.enabled:
            self._record_counters()     # one sample per batch
        return self.stats

    def flush(self) -> int:
        """Write back all dirty lines; returns how many were flushed."""
        count = 0
        for ways in self.sets:
            for line in ways:
                if line.valid and line.dirty:
                    line.dirty = False
                    count += 1
                    self.stats.writebacks += 1
                    self.stats.memory_writes += 1
        return count

    def reset_stats(self) -> None:
        """Zero the counters without touching cache contents."""
        self.stats = CacheStats()

    # -- inspection ---------------------------------------------------------------

    def contains(self, address: int) -> bool:
        """True if the block holding ``address`` is resident."""
        parts = self.layout.divide(address)
        return any(l.valid and l.tag == parts.tag
                   for l in self.sets[parts.index])

    def set_state(self, index: int) -> list[tuple[bool, int, bool]]:
        """(valid, tag, dirty) per way — what students draw per step."""
        return [(l.valid, l.tag, l.dirty) for l in self.sets[index]]

    def render_set(self, index: int) -> str:
        """One set's per-way V/D/tag state as text (the homework drawing)."""
        rows = []
        for way, line in enumerate(self.sets[index]):
            rows.append(f"set {index} way {way}: "
                        f"V={int(line.valid)} D={int(line.dirty)} "
                        f"tag={line.tag:#x}" if line.valid else
                        f"set {index} way {way}: V=0")
        return "\n".join(rows)


def amat(levels: list[Cache], memory_latency: int) -> float:
    """Average memory access time through a cache hierarchy.

    AMAT = hit_time + miss_rate × (next level's AMAT), using each
    level's observed stats. Levels are ordered L1 first.
    """
    time = float(memory_latency)
    for cache in reversed(levels):
        time = cache.config.hit_time + cache.stats.miss_rate * time
    return time
