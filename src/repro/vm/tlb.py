"""The translation lookaside buffer.

"...TLB caching of address translations to speed-up effective memory
access time" (§III-A). A small fully-associative LRU cache of
(pid, vpn) → frame mappings. Context switches either flush it or rely on
the pid tag — the course teaches the flush model, so that's the default,
but tagged mode is available to show why hardware grew ASIDs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import VmError


@dataclass(slots=True)
class TlbStats:
    hits: int = 0
    misses: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class TLB:
    """Fully-associative, LRU-replaced translation cache."""

    def __init__(self, capacity: int = 16, *, tagged: bool = False,
                 recorder=None) -> None:
        from repro.obs.recorder import coalesce
        if capacity <= 0:
            raise VmError("TLB needs positive capacity")
        self.capacity = capacity
        self.tagged = tagged
        self._entries: OrderedDict[tuple[int, int], int] = OrderedDict()
        self.stats = TlbStats()
        #: shared trace recorder (see repro.obs); NULL_RECORDER when off
        self.recorder = coalesce(recorder)
        self._ctr_series = None   # trace handle, resolved on first use

    def _record_counters(self) -> None:
        if self._ctr_series is None:
            self._ctr_series = self.recorder.counter_series(
                "tlb", ("hits", "misses", "flushes"),
                pid="vm", tid="tlb", cat="vm")
        stats = self.stats
        self._ctr_series.sample(
            self.recorder.now(),
            (stats.hits, stats.misses, stats.flushes))

    def _key(self, pid: int, vpn: int) -> tuple[int, int]:
        return (pid if self.tagged else 0, vpn)

    def lookup(self, pid: int, vpn: int) -> int | None:
        frame = self.hit(pid, vpn)
        if frame is None:
            self.stats.misses += 1
            if self.recorder.enabled:
                self._record_counters()
        return frame

    def hit(self, pid: int, vpn: int) -> int | None:
        """:meth:`lookup`'s hit half: on a hit, the same transitions
        (recency, hit count, counter sample) and the frame; on a miss,
        ``None`` and no change, so the caller can still :meth:`lookup`."""
        key = self._key(pid, vpn)
        frame = self._entries.get(key)
        if frame is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if self.recorder.enabled:
                self._record_counters()
        return frame

    def insert(self, pid: int, vpn: int, frame: int) -> None:
        key = self._key(pid, vpn)
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) == self.capacity:
            self._entries.popitem(last=False)   # evict LRU
        self._entries[key] = frame

    def record_hits(self, pid: int, vpns, count: int) -> None:
        """Account ``count`` hits to resident entries at once.

        Each page of ``vpns`` moves to most-recently-used in the order
        given, which must be the order of their last use: exactly where
        ``count`` scalar lookups would leave them (a no-op for a page
        that already is). The hit counter advances by ``count``.
        """
        if count < 0:
            raise VmError("hit count cannot be negative")
        entries = self._entries
        for vpn in vpns:
            key = self._key(pid, vpn)
            if key not in entries:
                raise VmError(f"page {vpn} of pid {pid} is not in the TLB")
            entries.move_to_end(key)
        self.stats.hits += count
        if self.recorder.enabled:
            self._record_counters()

    def invalidate(self, pid: int, vpn: int) -> None:
        self._entries.pop(self._key(pid, vpn), None)

    def flush(self) -> None:
        """Full flush — what an untagged TLB does on context switch."""
        self._entries.clear()
        self.stats.flushes += 1
        if self.recorder.enabled:
            self.recorder.instant("tlb-flush", pid="vm", tid="tlb",
                                  cat="vm")
            self._record_counters()

    def __len__(self) -> int:
        return len(self._entries)
