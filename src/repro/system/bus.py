"""The memory bus: one pluggable seam between the CPU and its memory.

The course's whole point is the *vertical slice* — one program travels
C → assembly → memory hierarchy → caches → OS/VM — but the simulators
were silos: :class:`~repro.isa.machine.Machine` executed over a flat
:class:`~repro.clib.address_space.AddressSpace` while the cache and VM
simulators replayed detached traces. :class:`MemoryBus` is the seam
that joins them: every load/store/fetch the machine performs goes
through a bus, and the bus decides what sits behind it.

Three composable implementations:

* :class:`FlatBus` — today's behaviour, bit-identical: accesses go
  straight to an :class:`AddressSpace`; each costs one RAM access.
* :class:`CachedBus` — a :class:`~repro.memory.multilevel.CacheHierarchy`
  sits in front of memory; latency follows from which level hits.
* :class:`VirtualBus` — per-pid page tables: each access is translated
  by the existing :class:`~repro.vm.mmu.MMU` (TLB probe, page walk,
  fault service, frame allocation), the resulting *physical* address
  probes the caches, and the bytes live in a per-process address space
  (the paged regions' backing store). Context switches happen through
  ``MMU.context_switch`` — an untagged TLB flushes — and process exit
  releases frames via ``MMU.destroy_process``.

Timing is accounted in :class:`BusStats.cycles` against one unified
:class:`CostModel`, so a run on any bus yields a cycles/CPI breakdown
the :mod:`repro.system.runner` report can compare across
configurations. Recording (``recorder=``) follows the :mod:`repro.obs`
rules: hooks guard on ``recorder.enabled`` and never change behaviour.

A JIT defers the accounting of its blocks' accesses, and on the
virtual bus an untraced interpreted slice defers its own
(:meth:`ProcessView.deferred`). Either hands the bus a batch of packed
records, one int per access (address, size and kind; see
:func:`~repro.clib.address_space.encode_access`), through
``replay_block``: the flat bus counts their kinds, and the cached bus
takes their kinds and addresses from one numpy array with a shift and
two masks.

The virtual bus accounts with one engine, :meth:`VirtualBus._replay`:
an exact, in-order pass over a batch of accesses, one linear page per
page touched, that runs :meth:`MMU.replay` and then
:meth:`CacheHierarchy.replay`. :meth:`VirtualBus._linear` first decodes
the batch's records to linear pages through a per-process memo keyed by
page, kind and size. Untraced, the engines collapse resident TLB and L1
hits; traced, they record by one rule, whatever the batch: the MMU
collapses only a run on the page it last translated and samples once at
the end of the batch, and each cache level samples once per batch it
reached. A single access (:meth:`VirtualBus.read_for` and friends,
which a traced interpreted run issues) is accounted access by access,
one ``MMU.translate`` and one ``CacheHierarchy.probe`` per page it
touches, so its trace keeps every per-access sample.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.clib.address_space import (ADDRESS_MASK, FETCH, KIND_SHIFT, LOAD,
                                      SIZE_SHIFT, STORE, AddressSpace,
                                      ByteAddressable)
from repro.errors import BusError
from repro.memory.cache import CacheConfig
from repro.memory.multilevel import CacheHierarchy
# the cycle-accounting vocabulary lives in repro.system.costing (shared
# with the cluster network); these re-imports keep the original import
# paths — repro.system.bus.CostModel / .BusStats — working unchanged
from repro.system.costing import BusStats, CostModel
from repro.vm.mmu import MMU
from repro.vm.physical import PhysicalMemory

#: bus kinds the CLI and the runner accept
BUS_KINDS = ("flat", "cached", "virtual")


@runtime_checkable
class MemoryBus(Protocol):
    """What the ISA machine (and the debugger) require of memory.

    Structurally, a bus is a :class:`ByteAddressable` plus ``view`` and
    accounting: ``read``/``write``/``fetch`` move bytes, ``view(pid)``
    binds a process identity for per-pid buses, and :attr:`stats`
    accumulates the traffic and its cycle cost. A plain
    :class:`AddressSpace` satisfies the byte seam but not the
    accounting — wrap it in a :class:`FlatBus` to get both.
    """

    kind: str
    stats: BusStats

    def read(self, address: int, size: int) -> bytes: ...

    def write(self, address: int, data: bytes) -> None: ...

    def fetch(self, address: int, size: int) -> bytes: ...

    def view(self, pid: int | None = None) -> ByteAddressable: ...


def _charge_probe(stats: BusStats, hierarchy: CacheHierarchy,
                  cost: CostModel, address: int, kind: str) -> None:
    """Charge one CPU access: a single probe at its first byte (the
    granularity the course's trace replays use), costed by hit level."""
    hit_level = hierarchy.probe(address, kind)
    cycles = 0.0
    for i, level in enumerate(hierarchy.levels):
        cycles += level.config.hit_time
        if hit_level == i:
            break
    else:
        cycles += cost.memory_time
    stats.charge("cache" if hit_level >= 0 else "memory", cycles)


def _charge_hit_levels(stats: BusStats, hierarchy: CacheHierarchy,
                       cost: CostModel, hit_level) -> None:
    """Charge a batch of cache probes from their per-access hit levels
    (the array :meth:`CacheHierarchy.simulate_arrays` returns): the
    counts of :func:`_charge_level_counts`, taken with one bincount."""
    counts = np.bincount(np.asarray(hit_level, dtype=np.int64) + 1,
                         minlength=len(hierarchy.levels) + 1).tolist()
    _charge_level_counts(stats, hierarchy, cost, counts[1:] + counts[:1])


def _charge_level_counts(stats: BusStats, hierarchy: CacheHierarchy,
                         cost: CostModel, counts) -> None:
    """Charge a batch of cache probes from how many hit at each level
    (main memory last).

    The batch analogue of :func:`_charge_probe`: a hit at level *i*
    costs the cumulative hit times through *i* (bucket
    ``cache``); a full miss costs every level plus ``memory_time``
    (bucket ``memory``). With the default integer-valued cost models,
    ``count * cycles`` equals the scalar path's repeated additions
    exactly, so stats-equality asserts hold bit-for-bit.
    """
    cum = 0.0
    cache_cycles = 0.0
    hits = 0
    for level, count in zip(hierarchy.levels, counts):
        cum += level.config.hit_time
        if count:
            cache_cycles += count * cum
            hits += count
    if hits:
        stats.charge("cache", cache_cycles)
    if counts[-1]:
        stats.charge("memory", counts[-1] * (cum + cost.memory_time))


def default_hierarchy(*, recorder=None) -> CacheHierarchy:
    """The two-level cache stack the cached/virtual buses use by default."""
    return CacheHierarchy(
        [CacheConfig(num_lines=64, block_size=16, associativity=2,
                     hit_time=1),
         CacheConfig(num_lines=256, block_size=16, associativity=4,
                     hit_time=10)],
        recorder=recorder)


class FlatBus(ByteAddressable):
    """Today's model, behind the seam: one address space, no translation.

    Bit-identical to handing the :class:`AddressSpace` to the machine
    directly — same region/permission faults, same access trace, same
    watcher notifications — plus traffic and cycle accounting (each
    access costs one ``memory_time``).
    """

    kind = "flat"

    def __init__(self, space: AddressSpace | None = None, *,
                 cost: CostModel | None = None, recorder=None) -> None:
        from repro.obs.recorder import coalesce
        self.space = space or AddressSpace.standard()
        self.cost = cost or CostModel()
        self.stats = BusStats()
        #: shared trace recorder (see repro.obs); NULL_RECORDER when off
        self.recorder = coalesce(recorder)
        self._ctr_series = None   # trace handle, resolved on first use

    def view(self, pid: int | None = None) -> "FlatBus":
        """A flat bus has no per-process state; every view is the bus."""
        return self

    def read(self, address: int, size: int) -> bytes:
        data = self.space.read(address, size)
        self.stats.loads += 1
        self.stats.charge("memory", self.cost.memory_time)
        return data

    def write(self, address: int, data: bytes) -> None:
        self.space.write(address, data)
        self.stats.stores += 1
        self.stats.charge("memory", self.cost.memory_time)

    def fetch(self, address: int, size: int) -> bytes:
        data = self.space.fetch(address, size)
        self.stats.fetches += 1
        self.stats.charge("memory", self.cost.memory_time)
        return data

    def replay_block(self, accesses: list[int]) -> None:
        """Account a block of deferred accesses, one packed record each
        (see :func:`~repro.clib.address_space.encode_access`).

        The JIT moves a compiled block's bytes through the backing
        space directly and hands the accounting here in one call; on a
        flat bus only the kind counts matter (every access costs one
        ``memory_time``), so the whole block charges at once.
        """
        if not accesses:
            return
        fetches, loads, stores = np.bincount(
            np.array(accesses, dtype=np.int64) >> KIND_SHIFT & 3,
            minlength=3).tolist()
        self.stats.loads += loads
        self.stats.stores += stores
        self.stats.fetches += fetches
        self.stats.charge("memory", len(accesses) * self.cost.memory_time)
        if self.recorder.enabled:
            # one cumulative sample per replayed block, so JIT-batched
            # runs stay visible in the trace
            if self._ctr_series is None:
                self._ctr_series = self.recorder.counter_series(
                    "bus", ("loads", "stores", "fetches"),
                    pid="memory", tid="bus", cat="cache")
            self._ctr_series.sample(
                self.recorder.now(),
                (self.stats.loads, self.stats.stores, self.stats.fetches))

    def describe(self) -> str:
        return "flat: address space -> RAM (no caches, no translation)"


class CachedBus(ByteAddressable):
    """A cache hierarchy in front of physical memory.

    Bytes still live in (and faults still come from) the backing
    address space; the hierarchy models *timing*: an access probes L1,
    then L2..., and only a last-level miss pays ``memory_time``. The
    cache simulators are the very ones the caching homeworks trace, so
    their stats (per-level hit rates, AMAT) stay available on
    :attr:`hierarchy`.
    """

    kind = "cached"

    def __init__(self, space: AddressSpace | None = None, *,
                 hierarchy: CacheHierarchy | None = None,
                 cost: CostModel | None = None, recorder=None) -> None:
        self.space = space or AddressSpace.standard()
        self.cost = cost or CostModel()
        self.hierarchy = hierarchy or default_hierarchy(recorder=recorder)
        self.stats = BusStats()

    def view(self, pid: int | None = None) -> "CachedBus":
        """Caches are shared hardware; every view is the bus."""
        return self

    def read(self, address: int, size: int) -> bytes:
        data = self.space.read(address, size)
        self.stats.loads += 1
        _charge_probe(self.stats, self.hierarchy, self.cost, address, "load")
        return data

    def write(self, address: int, data: bytes) -> None:
        self.space.write(address, data)
        self.stats.stores += 1
        _charge_probe(self.stats, self.hierarchy, self.cost, address, "store")

    def fetch(self, address: int, size: int) -> bytes:
        data = self.space.fetch(address, size)
        self.stats.fetches += 1
        # an instruction fetch probes the caches like a load
        _charge_probe(self.stats, self.hierarchy, self.cost, address, "load")
        return data

    def replay_block(self, accesses: list[int]) -> None:
        """Account a block of deferred accesses, one packed record each
        (see :func:`~repro.clib.address_space.encode_access`).

        One :meth:`CacheHierarchy.simulate_arrays` call replaces the
        per-access scalar probes. The records become one array; a shift
        and a mask give their kinds, a mask their addresses. Fetches
        probe like loads, as in :meth:`fetch`. The hierarchy sees the
        identical probe sequence, so level stats, final set state, and
        cycle charges match the scalar path exactly.
        """
        if not accesses:
            return
        records = np.array(accesses, dtype=np.int64)
        kinds = records >> KIND_SHIFT & 3
        fetches, loads, stores = np.bincount(kinds, minlength=3).tolist()
        self.stats.loads += loads
        self.stats.stores += stores
        self.stats.fetches += fetches
        _charge_hit_levels(self.stats, self.hierarchy, self.cost,
                           self.hierarchy.simulate_arrays(
                               records & ADDRESS_MASK, kinds == STORE))

    def describe(self) -> str:
        levels = " -> ".join(
            f"L{i + 1}({c.config.capacity_bytes}B/"
            f"{c.config.associativity}-way)"
            for i, c in enumerate(self.hierarchy.levels))
        return f"cached: {levels} -> RAM"


class _Process:
    """Per-pid state: backing bytes, the page→linear-page mapping, and
    the decode memo of :meth:`VirtualBus._linear`."""

    __slots__ = ("space", "vpn_of", "num_pages", "memo")

    def __init__(self, space: AddressSpace, page_size: int) -> None:
        self.space = space
        #: page number of an address (``address // page_size``) -> its
        #: page in the process's linear page space, where pages are
        #: numbered contiguously region by region, so the page table
        #: covers only the mapped regions
        self.vpn_of: dict[int, int] = {}
        vpn = 0
        for region in space.layout():
            if region.start % page_size or region.size % page_size:
                raise BusError(
                    f"region {region.name!r} is not page-aligned "
                    f"(page size {page_size})")
            first = region.start // page_size
            for page in range(region.size // page_size):
                self.vpn_of[first + page] = vpn
                vpn += 1
        self.num_pages = vpn
        #: ``record >> page shift`` (a packed record's size, kind and
        #: page) -> (linear page base, is store, kind, last offset at
        #: which an access of that size fits in the page); see
        #: :meth:`VirtualBus._linear`
        self.memo: dict[int, tuple[int, bool, int, int]] = {}


class _DeferredView(ByteAddressable):
    """A process's bytes with the bus accounting deferred to a list of
    packed records, :attr:`pending`: a JIT's, which its compiled blocks
    append to as well, or an interpreted run's own.

    Each access moves its bytes through the backing
    :class:`AddressSpace` at once (faults, trace and watchers as
    usual) and then appends its packed record (see
    :func:`~repro.clib.address_space.encode_access`) to
    :attr:`pending`, which :meth:`VirtualBus.replay_block_for` accounts
    later in one batch. An access that faults appends nothing.
    """

    def __init__(self, space: AddressSpace, pending: list[int]) -> None:
        self.space = space
        self.pending = pending
        self._append = pending.append

    # each record is packed as encode_access packs it, inline: the space
    # access before it has proved the address 32-bit

    def read(self, address: int, size: int) -> bytes:
        data = self.space.read(address, size)
        self._append(address | LOAD << KIND_SHIFT | size << SIZE_SHIFT)
        return data

    def write(self, address: int, data: bytes) -> None:
        self.space.write(address, data)
        self._append(address | STORE << KIND_SHIFT | len(data) << SIZE_SHIFT)

    def fetch(self, address: int, size: int) -> bytes:
        data = self.space.fetch(address, size)
        self._append(address | FETCH << KIND_SHIFT | size << SIZE_SHIFT)
        return data

    @staticmethod
    def fetch_entries(addresses, size: int) -> dict[int, int]:
        """The record a fetch of ``size`` bytes at each of ``addresses``
        appends, for a run that appends them to :attr:`pending` itself
        (see :meth:`repro.isa.machine.Machine._fetch_entries`, which
        has checked every address lies in an executable region)."""
        tag = FETCH << KIND_SHIFT | size << SIZE_SHIFT
        return {address: address | tag for address in addresses}


def _split(vpn_of: dict, shift: int, page_size: int, address: int,
           size: int) -> list[int]:
    """The linear address of each page an access touches, in order.

    An access that spans a page boundary translates each touched page,
    as hardware does; the linear address of a page is its place in the
    process's page space (see :class:`_Process`).
    """
    mask = page_size - 1
    out = []
    addr = address
    end = address + size
    while addr < end:
        vpn = vpn_of.get(addr >> shift)
        if vpn is None:
            # out-of-range addresses fault in the address space with the
            # standard message; translation never sees them
            raise BusError(f"address {addr:#010x} is outside every "
                           "segment")
        out.append((vpn << shift) | (addr & mask))
        addr = (addr | mask) + 1                     # next page (if any)
    return out


class ProcessView(ByteAddressable):
    """A :class:`VirtualBus` with the pid baked in.

    This is what the machine (and the debugger) hold: the same
    byte-addressable interface an :class:`AddressSpace` offers, with
    every access routed through the owning bus as this process.
    """

    def __init__(self, bus: "VirtualBus", pid: int) -> None:
        self.bus = bus
        self.pid = pid
        #: the backing space — exposed so watchers/trace attach per-pid
        self.space = bus.space_of(pid)

    kind = "virtual-view"

    @property
    def stats(self) -> BusStats:
        return self.bus.stats

    def view(self, pid: int | None = None) -> "ProcessView":
        return self if pid in (None, self.pid) else self.bus.view(pid)

    def read(self, address: int, size: int) -> bytes:
        return self.bus.read_for(self.pid, address, size)

    def write(self, address: int, data: bytes) -> None:
        self.bus.write_for(self.pid, address, data)

    def fetch(self, address: int, size: int) -> bytes:
        return self.bus.fetch_for(self.pid, address, size)

    def replay_block(self, accesses) -> None:
        self.bus.replay_block_for(self.pid, accesses)

    def deferred(self, pending: list | None = None
                 ) -> "_DeferredView | None":
        """This process's bytes with the accounting deferred to the
        view's :attr:`~_DeferredView.pending` list of packed records,
        for :meth:`replay_block` to account later; None when the bus
        records a counter sample per access (a traced run), which a
        batch would merge.

        The list is ``pending`` when given (a JIT's, which its compiled
        blocks append to as well), and otherwise a fresh one (an
        interpreted run's)."""
        if self.bus.samples():
            return None
        return _DeferredView(self.space, [] if pending is None else pending)


class VirtualBus:
    """Per-pid page tables → TLB/MMU → caches → physical frames.

    Each process gets its own page table (one entry per page of its
    mapped regions) and its own backing :class:`AddressSpace` — that
    isolation is the point: two processes reading the *same virtual
    address* see their own bytes, exactly the course's VM story. The
    existing :class:`~repro.vm.mmu.MMU` does all translation work
    (TLB probe, page walk, fault handling, LRU frame eviction, untagged
    TLB flush on context switch); the *physical* address it returns is
    what probes the shared cache hierarchy, so cache contention between
    processes is visible after a switch.

    Accesses that span a page boundary translate each touched page, as
    hardware does. Permissions stay with the regions (the page-table
    ``writable`` bit is left permissive), so a stray store faults with
    the same :class:`~repro.errors.SegmentationFault` a flat run raises.

    Every batch of packed records is accounted by one engine,
    :meth:`_replay`: a JIT block's or an untraced interpreted slice's,
    from :meth:`replay_block_for`. A single access from
    :meth:`read_for` and friends is translated and probed page by page
    (:meth:`_account`). End state and charges equal an access-by-access
    walk whatever the batch size.
    """

    kind = "virtual"

    def __init__(self, *, mmu: MMU | None = None,
                 hierarchy: CacheHierarchy | None = None,
                 cost: CostModel | None = None,
                 page_size: int = 4096, num_frames: int = 64,
                 tlb_entries: int = 16, trace: bool = False,
                 recorder=None) -> None:
        self.cost = cost or CostModel()
        self.mmu = mmu or MMU(PhysicalMemory(num_frames, page_size),
                              page_size=page_size, tlb_entries=tlb_entries,
                              recorder=recorder)
        self.page_size = self.mmu.page_size
        self._offset_bits = self.page_size.bit_length() - 1
        self.hierarchy = hierarchy or default_hierarchy(recorder=recorder)
        self.trace = trace
        self.stats = BusStats()
        self._procs: dict[int, _Process] = {}

    # -- process lifecycle -------------------------------------------------

    def create_process(self, pid: int,
                       space: AddressSpace | None = None) -> ProcessView:
        """Give ``pid`` a page table and a backing address space."""
        if pid in self._procs:
            raise BusError(f"pid {pid} already has an address space")
        proc = _Process(space or AddressSpace.standard(trace=self.trace),
                        self.page_size)
        self.mmu.create_process(pid, proc.num_pages)
        self._procs[pid] = proc
        return ProcessView(self, pid)

    def destroy_process(self, pid: int) -> None:
        """Process exit: release frames, swap slots, table, and bytes."""
        self._proc(pid)
        self.mmu.destroy_process(pid)
        del self._procs[pid]

    def view(self, pid: int | None = None) -> ProcessView:
        if pid is None:
            raise BusError("a virtual bus needs a pid "
                           "(use bus.view(pid) / Machine(..., pid=...))")
        self._proc(pid)
        return ProcessView(self, pid)

    def space_of(self, pid: int) -> AddressSpace:
        """The backing bytes of one process (its private regions)."""
        return self._proc(pid).space

    def pids(self) -> list[int]:
        return sorted(self._procs)

    def _proc(self, pid: int) -> _Process:
        proc = self._procs.get(pid)
        if proc is None:
            raise BusError(f"no process {pid} on this bus "
                           "(create_process first)")
        return proc

    # -- accounting ----------------------------------------------------------

    def samples(self) -> bool:
        """Does the MMU, the TLB or a cache level record a counter sample
        per access? (A traced run: batches would merge those samples.)"""
        return (self.mmu.recorder.enabled or self.mmu.tlb.recorder.enabled
                or any(level.recorder.enabled
                       for level in self.hierarchy.levels))

    def _linear(self, proc: _Process, accesses: list[int]
                ) -> tuple[list[int], list[bool], int, int]:
        """The packed records as one ``(linear address, is store)`` pair
        per page touched, plus the load and store counts.

        A record decodes through ``proc.memo``, keyed on ``record >>
        page shift``: the record's size, kind and page together, so the
        memo holds at most mapped pages × kinds × sizes entries, however
        many addresses the process touches. An entry gives the page's
        linear base, the store flag, the kind, and the last offset at
        which an access of that size fits in the page. A miss fills it;
        an access past that offset crosses a page and splits as
        :func:`_split` does.
        """
        memo = proc.memo
        get = memo.get
        vpn_of = proc.vpn_of
        shift = self._offset_bits
        page_size = self.page_size
        mask = page_size - 1
        vaddrs: list[int] = []
        writes: list[bool] = []
        append = vaddrs.append
        flag = writes.append
        counts = [0, 0, 0]
        for record in accesses:
            entry = get(record >> shift)
            if entry is None:
                kind = record >> KIND_SHIFT & 3
                vpn = vpn_of.get((record & ADDRESS_MASK) >> shift)
                if vpn is None:        # not memoised; _split faults
                    entry = (0, kind == STORE, kind, -1)
                else:
                    entry = memo[record >> shift] = (
                        vpn << shift, kind == STORE, kind,
                        page_size - (record >> SIZE_SHIFT))
            base, write, kind, last = entry
            counts[kind] += 1
            offset = record & mask
            if offset <= last:
                append(base | offset)
                flag(write)
                continue
            for vaddr in _split(vpn_of, shift, page_size,
                                record & ADDRESS_MASK, record >> SIZE_SHIFT):
                append(vaddr)
                flag(write)
        return vaddrs, writes, counts[LOAD], counts[STORE]

    def _charge_translations(self, hits: int, misses: int,
                             faults: int) -> None:
        cost = self.cost
        if hits:
            self.stats.charge("tlb", hits * cost.tlb_time)
        if misses:
            self.stats.charge("walk",
                              misses * (cost.tlb_time + cost.memory_time))
        if faults:
            self.stats.charge("fault", faults * cost.fault_service_time)

    def _replay(self, pid: int, accesses) -> None:
        """Account a batch of ``pid``'s accesses, in order: the bus's one
        batch engine, traced or not. The batch is a list of packed
        records, a JIT's or an interpreted slice's, which :meth:`_linear`
        maps to linear pages.

        One :meth:`MMU.replay` pass translates every touched page and
        one :meth:`CacheHierarchy.replay` pass probes the physical
        addresses (fetches probe like loads). Both are exact in-order
        walks in pure Python that collapse resident TLB and L1 hits (by
        their recording rule while traced), and MMU and cache state are
        independent, so end state and charges equal an access-by-access
        walk; each cycle bucket is charged once per batch.
        """
        proc = self._proc(pid)
        mmu = self.mmu
        if mmu.current_pid != pid:
            # switching to the running pid is a no-op; skip the call
            mmu.context_switch(pid)
        vaddrs, writes, loads, stores = self._linear(proc, accesses)
        stats = self.stats
        stats.loads += loads
        stats.stores += stores
        stats.fetches += len(accesses) - loads - stores
        tlb = mmu.tlb.stats
        hits, misses, faults = tlb.hits, tlb.misses, mmu.stats.page_faults
        paddrs: list[int] = []
        try:
            mmu.replay(vaddrs, writes, paddrs)
        finally:
            # on a fault, the accesses translated before it are charged
            # and probe the caches, as a walk would have done
            self._charge_translations(tlb.hits - hits, tlb.misses - misses,
                                      mmu.stats.page_faults - faults)
            _charge_level_counts(stats, self.hierarchy, self.cost,
                                 self.hierarchy.replay(paddrs, writes))

    # -- current-process access (the MemoryBus protocol face) ----------------
    # The CPU is always running *some* process; un-pidded accesses route
    # to whichever one last ran, exactly as the hardware bus would.

    def _current(self) -> int:
        pid = self.mmu.current_pid
        if pid is None:
            raise BusError("no process on this bus (create_process first)")
        return pid

    def read(self, address: int, size: int) -> bytes:
        return self.read_for(self._current(), address, size)

    def write(self, address: int, data: bytes) -> None:
        self.write_for(self._current(), address, data)

    def fetch(self, address: int, size: int) -> bytes:
        return self.fetch_for(self._current(), address, size)

    # -- per-pid byte access ------------------------------------------------

    def read_for(self, pid: int, address: int, size: int) -> bytes:
        proc = self._proc(pid)
        data = proc.space.read(address, size)
        self._account(pid, proc, "load", address, size)
        return data

    def write_for(self, pid: int, address: int, data: bytes) -> None:
        proc = self._proc(pid)
        proc.space.write(address, data)
        self._account(pid, proc, "store", address, len(data))

    def fetch_for(self, pid: int, address: int, size: int) -> bytes:
        proc = self._proc(pid)
        data = proc.space.fetch(address, size)
        self._account(pid, proc, "fetch", address, size)
        return data

    def _account(self, pid: int, proc: _Process, kind: str, address: int,
                 size: int) -> None:
        """Account one access of ``pid``, access by access: one
        :meth:`MMU.translate` per page it touches, then one
        :meth:`CacheHierarchy.probe` per page (the order :meth:`_replay`
        runs them in), charged bucket by bucket as :meth:`_replay`
        charges them. A traced run keeps every one of their counter
        samples.
        """
        shift = self._offset_bits
        page_size = self.page_size
        offset = address & (page_size - 1)
        vpn = proc.vpn_of.get(address >> shift)
        if vpn is not None and offset + size <= page_size:
            vaddrs = ((vpn << shift) | offset,)
        else:
            vaddrs = _split(proc.vpn_of, shift, page_size, address, size)
        mmu = self.mmu
        if mmu.current_pid != pid:
            mmu.context_switch(pid)
        stats = self.stats
        write = kind == "store"
        if write:
            stats.stores += 1
        elif kind == "load":
            stats.loads += 1
        else:
            stats.fetches += 1
        tlb = mmu.tlb.stats
        hits, misses, faults = tlb.hits, tlb.misses, mmu.stats.page_faults
        paddrs = []
        try:
            for vaddr in vaddrs:
                paddrs.append(mmu.translate(vaddr, write)[0])
        finally:
            # on a fault, the pages translated before it are charged and
            # probe the caches, as in _replay
            self._charge_translations(tlb.hits - hits, tlb.misses - misses,
                                      mmu.stats.page_faults - faults)
            for paddr in paddrs:
                _charge_probe(stats, self.hierarchy, self.cost, paddr,
                              "store" if write else "load")

    def replay_block_for(self, pid: int, accesses) -> None:
        """Account a batch of deferred accesses, traced or not: the
        packed records (see
        :func:`~repro.clib.address_space.encode_access`) of a JIT's
        blocks or of an interpreted slice (see
        :meth:`ProcessView.deferred`), through :meth:`_replay`."""
        if accesses:
            self._replay(pid, accesses)

    def describe(self) -> str:
        levels = " -> ".join(
            f"L{i + 1}" for i in range(len(self.hierarchy.levels)))
        return (f"virtual: page tables ({self.page_size}B pages) -> TLB"
                f"({self.mmu.tlb.capacity}) -> {levels} -> "
                f"{self.mmu.physical.num_frames} frames")


def make_bus(kind: str, *, cost: CostModel | None = None,
             trace: bool = False, recorder=None, **kwargs):
    """Build a bus by name — the CLI's ``--bus {flat,cached,virtual}``."""
    if kind == "flat":
        return FlatBus(AddressSpace.standard(trace=trace),
                       cost=cost, recorder=recorder, **kwargs)
    if kind == "cached":
        return CachedBus(AddressSpace.standard(trace=trace),
                         cost=cost, recorder=recorder, **kwargs)
    if kind == "virtual":
        return VirtualBus(cost=cost, trace=trace, recorder=recorder,
                          **kwargs)
    raise BusError(f"unknown bus kind {kind!r} "
                   f"(choose from {', '.join(BUS_KINDS)})")
