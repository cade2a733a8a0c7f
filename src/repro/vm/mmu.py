"""The MMU: translation, page faults, LRU replacement, context switches.

This is the machinery behind homeworks VM-1 and VM-2: trace one or two
processes' memory accesses through page tables, showing page faults,
LRU eviction of frames, dirty write-backs to swap, the effect of context
switches on the TLB, and the resulting effective access time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import is_power_of_two, log2_exact
from repro.errors import VmError
from repro.vm.page_table import PageTable
from repro.vm.physical import PhysicalMemory
from repro.vm.swap import SwapSpace
from repro.vm.tlb import TLB


@dataclass(frozen=True, slots=True)
class Translation:
    """What one access did — the row of a VM homework trace."""
    pid: int
    vaddr: int
    vpn: int
    frame: int
    paddr: int
    tlb_hit: bool
    page_fault: bool
    evicted: tuple[int, int] | None = None   # (pid, vpn) pushed out
    wrote_back: bool = False                 # eviction was dirty


@dataclass(frozen=True, slots=True)
class BatchTranslation:
    """What a :meth:`MMU.translate_many` batch did, in aggregate.

    ``paddrs`` is the per-access physical address array (the values
    ``Translation.paddr`` would carry, from :meth:`MMU.replay`); the
    counters are this batch's deltas against :class:`MmuStats` /
    :class:`~repro.vm.tlb.TlbStats`.
    """
    pid: int
    paddrs: "object"        # np.ndarray[int64]
    accesses: int
    tlb_hits: int
    page_faults: int
    evictions: int
    writebacks: int

    @property
    def tlb_hit_rate(self) -> float:
        return self.tlb_hits / self.accesses if self.accesses else 0.0

    @property
    def fault_rate(self) -> float:
        return self.page_faults / self.accesses if self.accesses else 0.0


@dataclass
class MmuStats:
    accesses: int = 0
    page_faults: int = 0
    evictions: int = 0
    writebacks: int = 0
    context_switches: int = 0

    @property
    def fault_rate(self) -> float:
        return self.page_faults / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class CostModel:
    """Latency parameters for the effective-access-time lecture formula."""
    memory_time: float = 100.0        # one RAM access (also page-table read)
    tlb_time: float = 1.0             # TLB probe
    fault_service_time: float = 8_000_000.0  # disk + handler


class MMU:
    """Per-process page tables over shared physical memory + swap + TLB."""

    def __init__(self, physical: PhysicalMemory | None = None,
                 *, page_size: int = 4096, tlb_entries: int = 16,
                 tagged_tlb: bool = False, num_frames: int = 8,
                 replacement: str = "lru", recorder=None) -> None:
        from repro.obs.recorder import coalesce
        if not is_power_of_two(page_size):
            raise VmError("page size must be a power of two")
        if replacement not in ("lru", "fifo"):
            raise VmError(f"unknown replacement policy {replacement!r}")
        self.replacement = replacement
        self.page_size = page_size
        self._offset_bits = log2_exact(page_size)
        self.physical = physical or PhysicalMemory(num_frames, page_size)
        if self.physical.frame_size != page_size:
            raise VmError("frame size must equal page size")
        self.swap = SwapSpace()
        #: shared trace recorder (see repro.obs); NULL_RECORDER when off
        self.recorder = coalesce(recorder)
        self.tlb = TLB(tlb_entries, tagged=tagged_tlb, recorder=recorder)
        self.page_tables: dict[int, PageTable] = {}
        self.current_pid: int | None = None
        self.stats = MmuStats()
        self._clock = 0
        self._ctr_series = None   # trace handle, resolved on first use
        #: (evicted, wrote_back) of the last page fault (read by access())
        self._fault: tuple[tuple[int, int] | None, bool] = (None, False)

    # -- process management ----------------------------------------------------

    def create_process(self, pid: int, num_pages: int) -> PageTable:
        """Give a new process an (empty) page table."""
        if pid in self.page_tables:
            raise VmError(f"pid {pid} already exists")
        table = PageTable(num_pages)
        self.page_tables[pid] = table
        if self.current_pid is None:
            self.current_pid = pid
        return table

    def destroy_process(self, pid: int) -> None:
        """Process exit: release its frames, swap slots, and table."""
        table = self._table(pid)
        for vpn in table.resident_pages():
            if self.tlb.tagged:
                # a tagged TLB keeps other pids' entries across switches;
                # drop the dead pid's before its frames can be reused
                self.tlb.invalidate(pid, vpn)
            self.physical.release(table.entry(vpn).frame)
        self.swap.discard_process(pid)
        del self.page_tables[pid]
        if self.current_pid == pid:
            self.current_pid = next(iter(self.page_tables), None)
            if not self.tlb.tagged:
                self.tlb.flush()

    def context_switch(self, pid: int) -> None:
        """Switch the running process; an untagged TLB must flush."""
        self._table(pid)
        if pid != self.current_pid:
            if self.recorder.enabled:
                self.recorder.instant(
                    "context-switch", ts=self._clock, pid="vm",
                    tid="mmu", cat="vm",
                    args={"from": self.current_pid, "to": pid})
            self.current_pid = pid
            self.stats.context_switches += 1
            if not self.tlb.tagged:
                self.tlb.flush()

    def _table(self, pid: int) -> PageTable:
        table = self.page_tables.get(pid)
        if table is None:
            raise VmError(f"no such process {pid}")
        return table

    # -- translation -------------------------------------------------------------

    def split(self, vaddr: int) -> tuple[int, int]:
        """Virtual address → (virtual page number, offset)."""
        return vaddr >> self._offset_bits, vaddr & (self.page_size - 1)

    def access(self, vaddr: int, *, write: bool = False,
               pid: int | None = None) -> Translation:
        """Translate and 'perform' one access for the current process
        (after a context switch to ``pid``, if given).

        The row view over :meth:`translate`, which makes the transition;
        a page fault's eviction is read back from it.
        """
        if pid is not None:
            self.context_switch(pid)
        paddr, tlb_hit, page_fault = self.translate(vaddr, write)
        evicted, wrote_back = self._fault if page_fault else (None, False)
        return Translation(self.current_pid, vaddr,
                           vaddr >> self._offset_bits,
                           paddr >> self._offset_bits, paddr,
                           tlb_hit=tlb_hit, page_fault=page_fault,
                           evicted=evicted, wrote_back=wrote_back)

    def translate(self, vaddr: int, write: bool = False
                  ) -> tuple[int, bool, bool]:
        """Translate one access for the current process; returns
        ``(paddr, tlb_hit, page_fault)``.

        The MMU's one transition, in order: protection check, TLB hit
        (recency, hit count), clock and stats; on a TLB miss, the miss
        count, the page-table walk, the fault handler, the page-fault
        instant and the TLB fill; then frame touch, referenced/dirty
        bits and the counter sample. A fault's ``(evicted,
        wrote_back)`` is kept for :meth:`access` to read back. The
        virtual bus calls it for a lone access and through
        :meth:`replay` for a batch's accesses not proved a TLB hit;
        :meth:`access` builds the homework's :class:`Translation` row
        over it.
        """
        pid = self.current_pid
        if pid is None:
            raise VmError("no process is running")
        vpn = vaddr >> self._offset_bits
        entry = self.page_tables[pid].check_access(vpn, write=write)
        frame = self.tlb.hit(pid, vpn)
        self._clock += 1
        self.stats.accesses += 1
        tlb_hit = frame is not None
        page_fault = False
        if not tlb_hit:
            self.tlb.lookup(pid, vpn)        # counts the miss
            if entry.valid:
                frame = entry.frame
            else:
                page_fault = True
                self.stats.page_faults += 1
                frame, evicted, wrote_back = self._handle_fault(pid, vpn)
                self._fault = (evicted, wrote_back)
                if self.recorder.enabled:
                    self.recorder.instant(
                        "page-fault", ts=self._clock, pid="vm",
                        tid="mmu", cat="vm",
                        args={"pid": pid, "vpn": vpn,
                              "evicted": evicted,
                              "wrote_back": wrote_back})
            self.tlb.insert(pid, vpn, frame)
        self.physical.touch(frame, self._clock)
        entry.referenced = True
        if write:
            entry.dirty = True
        if self.recorder.enabled:
            self._record_counters()
        paddr = (frame << self._offset_bits) | (vaddr & (self.page_size - 1))
        return paddr, tlb_hit, page_fault

    def _record_counters(self) -> None:
        """One cumulative "vm" counter sample at the current clock."""
        if self._ctr_series is None:
            self._ctr_series = self.recorder.counter_series(
                "vm", ("accesses", "page_faults", "evictions",
                       "writebacks"),
                pid="vm", tid="mmu", cat="vm")
        stats = self.stats
        self._ctr_series.sample(
            self._clock, (stats.accesses, stats.page_faults,
                          stats.evictions, stats.writebacks))

    def _handle_fault(self, pid: int, vpn: int
                      ) -> tuple[int, tuple[int, int] | None, bool]:
        """Bring (pid, vpn) into RAM, evicting the global-LRU frame if full."""
        evicted = None
        wrote_back = False
        if self.physical.full:
            victim_frame = (self.physical.lru_frame()
                            if self.replacement == "lru"
                            else self.physical.fifo_frame())
            info = self.physical.release(victim_frame)
            victim_table = self._table(info.pid)
            victim_entry = victim_table.unmap_page(info.vpn)
            self.tlb.invalidate(info.pid, info.vpn)
            self.stats.evictions += 1
            evicted = (info.pid, info.vpn)
            if victim_entry.dirty:
                self.swap.page_out(info.pid, info.vpn)
                victim_entry.in_swap = True
                wrote_back = True
                self.stats.writebacks += 1

        table = self._table(pid)
        entry = table.entry(vpn)
        if entry.in_swap:
            self.swap.page_in(pid, vpn)
            entry.in_swap = False
        frame = self.physical.allocate(pid, vpn, self._clock)
        table.map_page(vpn, frame)
        return frame, evicted, wrote_back

    def replay(self, vaddrs, writes, paddrs: list) -> None:
        """Translate a batch of accesses for the current process, in
        order, appending each physical address to ``paddrs``.

        Exactly :meth:`translate` per access, in pure Python, with the
        resident case collapsed (the resident case of Mattson et al.'s
        LRU stack algorithm): an access to a page that has hit or been
        filled since the batch's last TLB miss is a certain hit, since
        only a miss inserts into the TLB or evicts a frame. It costs a
        dict lookup; writes still pass the protection check and set the
        dirty bit at once. The collapsed hits' other effects (clock,
        access and hit counts, TLB recency in last-use order, each
        frame's ``last_used``) are applied before the next
        :meth:`translate` and at the end, so every scalar step sees the
        state the access-by-access walk would leave.

        The MMU's one batch engine: the virtual bus accounts its
        batches here, and :meth:`translate_many` wraps it. While a
        recorder (the MMU's or the TLB's) is enabled, only a run of
        accesses to the page last translated collapses, so the trace
        holds :meth:`translate`'s events at the head of each same-page
        run, one TLB sample for the rest of the run, and one cumulative
        "vm" sample at the end of the batch.
        """
        pid = self.current_pid
        if pid is None:
            raise VmError("no process is running")
        entries = self._table(pid).entries
        shift = self._offset_bits
        mask = self.page_size - 1
        translate = self.translate
        append = paddrs.append
        recording = self.recorder.enabled or self.tlb.recorder.enabled
        resident: dict[int, int] = {}  # vpn -> frame base, since a miss
        last: dict[int, int] = {}      # collapsed vpn -> last batch index
        base = self._clock             # access i ticks the clock to base+i+1
        done = 0                       # accesses applied to the MMU

        def settle(upto: int) -> None:
            count = upto - done
            self._clock = base + upto
            self.stats.accesses += count
            order = sorted(last, key=last.__getitem__)
            self.tlb.record_hits(pid, order, count)
            touch = self.physical.touch
            for vpn in order:
                touch(resident[vpn] >> shift, base + last[vpn] + 1)
            last.clear()

        for i, (vaddr, write) in enumerate(zip(vaddrs, writes)):
            vpn = vaddr >> shift
            frame_base = resident.get(vpn)
            if frame_base is not None and (not write
                                           or entries[vpn].writable):
                if write:
                    entries[vpn].dirty = True
                last[vpn] = i
                append(frame_base | (vaddr & mask))
                continue
            if last:
                settle(i)
            paddr, tlb_hit, _ = translate(vaddr, write)
            done = i + 1
            if recording or not tlb_hit:
                resident.clear()
            resident[vpn] = paddr & ~mask
            append(paddr)
        if last:
            settle(i + 1)
        if self.recorder.enabled:
            self._record_counters()

    def translate_many(self, vaddrs, *, writes=None,
                       pid: int | None = None) -> BatchTranslation:
        """Translate a whole address trace for one process, after a
        context switch to ``pid`` if given: :meth:`replay` over the
        trace, returned as a :class:`BatchTranslation` with the
        per-access physical addresses (an int64 array) and this batch's
        stat deltas. ``writes`` is an optional bool array-like (default:
        all loads). End state, recorded events and the position of a
        :class:`ProtectionFault` are :meth:`replay`'s.
        """
        import numpy as np
        if pid is not None:
            self.context_switch(pid)
        vaddrs = np.asarray(vaddrs, dtype=np.int64).tolist()
        if writes is None:
            writes = [False] * len(vaddrs)
        else:
            writes = np.asarray(writes, dtype=bool).tolist()
            if len(writes) != len(vaddrs):
                raise VmError("writes mask must match vaddrs in length")
        stats, tlb = self.stats, self.tlb.stats
        before = (stats.accesses, tlb.hits, stats.page_faults,
                  stats.evictions, stats.writebacks)
        paddrs: list[int] = []
        self.replay(vaddrs, writes, paddrs)
        after = (stats.accesses, tlb.hits, stats.page_faults,
                 stats.evictions, stats.writebacks)
        return BatchTranslation(self.current_pid,
                                np.array(paddrs, dtype=np.int64),
                                *(a - b for a, b in zip(after, before)))

    # -- trace + analysis ------------------------------------------------------------

    def run_trace(self, accesses: list[tuple[int, int, bool]]
                  ) -> list[Translation]:
        """Run (pid, vaddr, is_write) triples — the VM-2 homework format."""
        return [self.access(vaddr, write=w, pid=pid)
                for pid, vaddr, w in accesses]

    def effective_access_time(self, cost: CostModel | None = None) -> float:
        """EAT from observed TLB and fault behaviour.

        TLB hit: tlb_time + memory_time.
        TLB miss: tlb_time + memory_time (page-table walk) + memory_time.
        Page fault adds fault_service_time.
        """
        c = cost or CostModel()
        n = self.stats.accesses
        if n == 0:
            return 0.0
        tlb_hit_rate = self.tlb.stats.hit_rate
        fault_rate = self.stats.fault_rate
        eat = (c.tlb_time + c.memory_time
               + (1.0 - tlb_hit_rate) * c.memory_time
               + fault_rate * c.fault_service_time)
        return eat

    def render_state(self) -> str:
        """Page tables + RAM drawing, as the homework solutions show."""
        parts = []
        for pid in sorted(self.page_tables):
            parts.append(f"process {pid} page table:")
            parts.append(self.page_tables[pid].render())
        parts.append("RAM:")
        parts.append(self.physical.render())
        return "\n".join(parts)
