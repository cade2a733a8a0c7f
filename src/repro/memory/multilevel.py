"""A multi-level cache hierarchy: L1 backed by L2 backed by memory.

The course previews multi-level caches when introducing the hierarchy;
this simulator composes :class:`~repro.memory.cache.Cache` levels the
way hardware does: an access that misses L1 proceeds to L2 (and so on),
and only a miss at the last level reaches memory. AMAT then follows
from each level's *local* hit rate — the subtlety (global vs local miss
rate) that upper-level courses pick up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import CacheConfigError
from repro.memory.cache import AccessKind, Cache, CacheConfig


@dataclass(frozen=True)
class HierarchyAccess:
    """Where an access was satisfied."""
    address: int
    kind: AccessKind
    hit_level: int        # 0-based cache level, or -1 for memory


class CacheHierarchy:
    """An ordered stack of cache levels, L1 first."""

    def __init__(self, configs: list[CacheConfig], *,
                 memory_latency: int = 100, recorder=None) -> None:
        if not configs:
            raise CacheConfigError("hierarchy needs at least one level")
        for upper, lower in zip(configs, configs[1:]):
            if upper.capacity_bytes > lower.capacity_bytes:
                raise CacheConfigError(
                    "levels must grow (or stay equal) going down")
        # one trace track per cache level (L1, L2, ...)
        self.levels = [Cache(c, recorder=recorder,
                             trace_name=f"L{i + 1}")
                       for i, c in enumerate(configs)]
        self.memory_latency = memory_latency
        self.memory_accesses = 0

    def access(self, address: int, kind: AccessKind = "load"
               ) -> HierarchyAccess:
        """Probe levels in order; fill every missed level on the way.

        The row view over :meth:`probe`."""
        return HierarchyAccess(address, kind, self.probe(address, kind))

    def probe(self, address: int, kind: AccessKind = "load") -> int:
        """Probe levels in order (each through :meth:`Cache.probe`),
        filling every missed level; returns the 0-based level that hit,
        or -1 for main memory."""
        for i, cache in enumerate(self.levels):
            if cache.probe(address, kind):
                return i
        self.memory_accesses += 1
        return -1

    def replay(self, addrs, stores) -> list[int]:
        """Probe a batch of accesses in order (``stores`` flags each as
        a store or a load); returns how many hit at each level, with
        main memory last.

        Exactly :meth:`probe` per access, in pure Python, with L1's
        resident case collapsed: the batch remembers the L1 line each
        block was last found in (``Cache._line``), and an access whose
        line still holds its block is a certain L1 hit (tags are unique
        within a set). It costs a dict lookup and a tag compare; a
        store sets the line's dirty bit at once under write-back. The
        other effects (L1's clock and hit counts, each line's
        ``last_used``, write-through traffic) are applied before the
        next :meth:`probe` and at the end. The levels below L1 see L1's
        miss stream, in order, through :meth:`probe`.

        The levels record nothing during the batch (as in
        :meth:`Cache.access_many`); each level the batch reached then
        records one counter sample, as :meth:`simulate_arrays` does.
        """
        from repro.obs.recorder import NULL_RECORDER
        levels = self.levels
        l1 = levels[0]
        counts = [0] * (len(levels) + 1)
        offset_bits = l1._offset_bits
        tag_shift = l1._tag_shift
        write_back = l1.config.write_policy == "write-back"
        probe = self.probe
        resident: dict = {}            # block -> the L1 line it was in
        last: dict[int, int] = {}      # collapsed block -> last index
        base = l1._clock               # access i ticks L1 to base+i+1
        done = 0                       # accesses applied to L1
        stored = 0                     # collapsed stores since then

        def settle(upto: int) -> None:
            count = upto - done
            l1._clock = base + upto
            for block, i in last.items():
                resident[block].last_used = base + i + 1
            stats = l1.stats
            stats.store_hits += stored
            stats.load_hits += count - stored
            if not write_back:
                stats.memory_writes += stored
            counts[0] += count
            last.clear()

        recorders = [cache.recorder for cache in levels]
        for cache in levels:
            cache.recorder = NULL_RECORDER     # one sample per level, below
        try:
            for i, (addr, store) in enumerate(zip(addrs, stores)):
                block = addr >> offset_bits
                line = resident.get(block)
                if line is not None and line.tag == addr >> tag_shift:
                    last[block] = i
                    if store:
                        stored += 1
                        if write_back:
                            line.dirty = True
                    continue
                if last:
                    settle(i)
                    stored = 0
                level = probe(addr, "store" if store else "load")
                done = i + 1
                counts[level] += 1
                line = l1._line
                if line is not None:
                    resident[block] = line
            if last:
                settle(i + 1)
        finally:
            for cache, recorder in zip(levels, recorders):
                cache.recorder = recorder
        reached = sum(counts)
        for cache, count in zip(levels, counts):
            if not reached:
                break
            if cache.recorder.enabled:
                cache._record_counters()
            reached -= count
        return counts

    def run_trace(self, accesses: Iterable[int | tuple[int, AccessKind]]
                  ) -> list[HierarchyAccess]:
        out = []
        for item in accesses:
            if isinstance(item, tuple):
                out.append(self.access(*item))
            else:
                out.append(self.access(item))
        return out

    def simulate_trace(self, accesses):
        """Vectorized :meth:`run_trace`: whole-trace hierarchy simulation.

        Accepts the trace shapes :meth:`run_trace` accepts (see
        :func:`~repro.memory.vectorcache.as_trace_arrays`) and runs
        :meth:`simulate_arrays` over them.
        """
        from repro.memory import vectorcache
        return self.simulate_arrays(*vectorcache.as_trace_arrays(accesses))

    def simulate_arrays(self, addrs, stores):
        """Whole-trace hierarchy simulation over int64 addresses and a
        bool store mask.

        Every level runs the batch engine over the miss stream of the
        level above — the same access sequence each level sees in the
        scalar model — so all per-level stats (and therefore
        :meth:`amat`, :meth:`local_hit_rates`, :meth:`global_miss_rate`)
        come out identical. Returns a per-access int8 array of hit
        levels (0-based; ``-1`` = main memory), the vector analogue of
        the ``hit_level`` field. Levels configured with
        ``prefetch_next_line`` fall back to the scalar engine for that
        level only.
        """
        import numpy as np

        from repro.memory import vectorcache
        hit_level = np.full(len(addrs), -1, dtype=np.int8)
        remaining = np.arange(len(addrs))
        for i, cache in enumerate(self.levels):
            if not addrs.size:
                break
            if cache.config.prefetch_next_line:
                hits = np.fromiter(
                    (cache.probe(a, "store" if s else "load")
                     for a, s in zip(addrs.tolist(), stores.tolist())),
                    dtype=bool, count=len(addrs))
            else:
                hits = vectorcache.simulate_arrays(cache, addrs, stores)
            if cache.recorder.enabled:
                cache._record_counters()     # one sample per level batch
            hit_level[remaining[hits]] = i
            misses = ~hits
            addrs, stores = addrs[misses], stores[misses]
            remaining = remaining[misses]
        self.memory_accesses += int(addrs.size)
        return hit_level

    # -- analysis --------------------------------------------------------------

    def local_hit_rates(self) -> list[float]:
        """Hit rate of each level among the accesses that reached it."""
        return [c.stats.hit_rate for c in self.levels]

    def global_miss_rate(self) -> float:
        """Fraction of all accesses that reached main memory."""
        total = self.levels[0].stats.accesses
        return self.memory_accesses / total if total else 0.0

    def amat(self) -> float:
        """Average memory access time from observed local hit rates."""
        time = float(self.memory_latency)
        for cache in reversed(self.levels):
            time = cache.config.hit_time + cache.stats.miss_rate * time
        return time

    def report(self) -> str:
        lines = []
        for i, cache in enumerate(self.levels):
            s = cache.stats
            lines.append(
                f"L{i + 1}: {s.accesses} accesses, "
                f"{s.hit_rate:.1%} local hit rate "
                f"({cache.config.capacity_bytes} B, "
                f"{cache.config.associativity}-way)")
        lines.append(f"memory: {self.memory_accesses} accesses "
                     f"(global miss rate {self.global_miss_rate():.1%})")
        lines.append(f"AMAT: {self.amat():.2f} cycles")
        return "\n".join(lines)
