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
        """Probe levels in order; fill every missed level on the way."""
        for i, cache in enumerate(self.levels):
            result = cache.access(address, kind)
            if result.hit:
                return HierarchyAccess(address, kind, hit_level=i)
        self.memory_accesses += 1
        return HierarchyAccess(address, kind, hit_level=-1)

    def probe(self, address: int, kind: AccessKind = "load") -> int:
        """:meth:`access` without the record: just the hit level.

        The same level probes in the same order (each through
        :meth:`Cache.probe`), so every level's state and the memory
        access count match :meth:`access` exactly; returns the 0-based
        level that hit, or -1 for main memory.
        """
        for i, cache in enumerate(self.levels):
            if cache.probe(address, kind):
                return i
        self.memory_accesses += 1
        return -1

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
