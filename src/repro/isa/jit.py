"""Superblock JIT for the ISA machine.

The predecoded :meth:`~repro.isa.machine.Machine.run` loop still pays
Python's dispatch tax once per instruction: a dict lookup, a handler
call, attribute traffic on the register file and flag object, and a bus
round-trip per memory access. This module compiles *hot* code — entry
addresses the interpreter keeps revisiting — into one Python closure
per superblock, with registers and flags held in local variables. The
source comes from :class:`repro.isa.codegen._Writer`, the writer that
also generates the interpreter's one-instruction handlers.

A superblock starts at any hot address and follows the straight-line
path through the program's assembled CFG (:func:`build_asm_cfg`):
fall-through edges and static ``jmp``/``call`` targets extend it;
conditional jumps compile to *side exits* (return to the dispatcher
with the taken target); ``ret``, indirect jumps, ``halt``, a revisited
address (a loop closed), an unsupported instruction, or the length cap
end it. The common loop therefore becomes a single closure executed
once per iteration.

Each step of getting a block runs as rarely as its inputs allow. A
block is *formed* (walked and rendered to source) once per
:class:`~repro.isa.instructions.Program`, cached in
``program.jit_blocks``. The rendered source is the block's *shape*: its
instructions, registers, shift counts and code-generation settings. The
operand values (immediates, displacements, branch targets, return
addresses) are not in it; they stay on the formed block and reach the
code as ``_make``'s ``K`` argument. A shape is *compiled* once per
process: :func:`_code` keeps one code object per distinct source, so
blocks that differ only in their constants or addresses share one,
within a program and across programs: one C program built again with
other sizes or trip counts compiles nothing new, and programs built
from the same constructs share the shapes those constructs compile to.
Each machine then *binds* the code into its own namespace. Sharing a
code object shares no state: every code-generation setting changes the
rendered text, and everything program- or machine-specific reaches the
code only through ``_make``'s arguments.

Observational equivalence with :meth:`Machine.step` is the design
constraint, pinned by the differential tests:

* Register/flag/step/halt state matches at every exit, including
  mid-block faults — the generated ``except`` handler writes locals
  back, restores ``%eip`` to the faulting instruction, and reports how
  many instructions completed so the dispatcher's step count is exact.
* Mutation *order* is transcribed from the interpreter handler by
  handler (e.g. ``pushl`` decrements ``%esp`` before the store, flags
  update before a memory destination is written), so a fault observes
  the identical partial state.
* Memory data still moves through the backing
  :class:`~repro.clib.address_space.AddressSpace` at the original
  points — the trace, watcher notifications, and segmentation faults
  are unchanged — while *bus accounting* is deferred: each access
  appends a ``(kind, address, size)`` tuple to a pending list that is
  replayed in one ``replay_block`` call per block, where the vectorized
  engines (``CacheHierarchy.simulate_arrays``, ``MMU.translate_many``)
  replace per-access scalar simulation; where they fall back to one
  access at a time, they run ``Cache.probe`` and ``MMU.translate``,
  the one transition each structure has. Pending accounting is flushed
  before any interpreted instruction and on every fault, so the
  hierarchy always sees the exact scalar access sequence.

The JIT declines work instead of approximating it: byte-width
instructions and sub-register operands fall back to the interpreter's
handlers, one instruction at a time, and a machine whose space type is
unknown, or has no read-write region holding ``%esp``, is not JIT-run
at all (see :func:`supports`).

An enabled recorder composes with the JIT instead of disabling it:
every block execution records one complete-span (``block 0x...`` on
the ``isa/cpu`` track, ``dur`` and ``args["instructions"]`` = the
instructions it retired, including partial side-exit and fault runs),
and instructions the dispatcher still interprets record one span each
— all batched through the recorder's bulk-append path, so tracing
costs the dispatch loop two list appends per block entry. That is the
JIT's span granularity: per-instruction ``eip`` args (and fetch
instants) exist only in the interpreter's run loop and ``step()``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.analysis.cfg import build_asm_cfg
from repro.binary.twos_complement import MASK32
from repro.clib.address_space import Access, AddressSpace
from repro.errors import CMemoryError, MachineFault
from repro.isa.codegen import _Unsupported, _Writer
from repro.isa.instructions import INSTRUCTION_SIZE
from repro.isa.machine import SENTINEL_RETURN, TRACE_CHUNK, _fell_off

#: interpreter visits to one address before it is compiled
DEFAULT_THRESHOLD = 8
#: longest superblock, in instructions
MAX_BLOCK = 64
#: superblock code objects (one per block shape) the process keeps,
#: least recently used dropped first: a cap on memory (about 27 KB
#: each), not a hit-rate setting, since a dropped shape is compiled
#: again the next time a program forms it
MAX_CODE = 256
#: pending bus-accounting entries that force a flush at a block boundary
FLUSH_LIMIT = 1 << 16


@dataclass
class JitStats:
    """What the JIT did during a machine's runs."""
    blocks_compiled: int = 0
    entries: int = 0             # times a compiled block was entered
    side_exits: int = 0          # exits before a block's final instruction
    jit_steps: int = 0           # instructions executed inside blocks
    failures: int = 0            # addresses that could not be compiled
    guards_elided: int = 0       # accesses compiled without a bounds check

    def as_dict(self) -> dict[str, int]:
        return {"blocks_compiled": self.blocks_compiled,
                "entries": self.entries, "side_exits": self.side_exits,
                "jit_steps": self.jit_steps, "failures": self.failures,
                "guards_elided": self.guards_elided}


class CompiledBlock:
    __slots__ = ("entry", "length", "fn", "name_id")

    def __init__(self, entry: int, length: int, fn,
                 name_id: int = -1) -> None:
        self.entry = entry
        self.length = length
        self.fn = fn
        #: the block's interned trace label (-1 when tracing is off)
        self.name_id = name_id


def _bind(space):
    """(backing AddressSpace, replay callable or None) for a machine space,
    or ``(None, None)`` when the space type is unknown."""
    if isinstance(space, AddressSpace):
        return space, None
    from repro.system.bus import CachedBus, FlatBus, ProcessView
    if isinstance(space, (FlatBus, CachedBus, ProcessView)):
        return space.space, space.replay_block
    return None, None


def _stack_region(machine):
    """The read-write region of the machine's backing space that holds
    ``%esp``, or None (also for an unknown space type)."""
    backing = _bind(machine.space)[0]
    if backing is None:
        return None
    esp = machine.regs.get("esp")
    for region in backing.regions:
        if region.readable and region.writable and region.contains(esp, 1):
            return region
    return None


def supports(machine) -> bool:
    """Can the JIT run this machine?

    Its space must be a known type, with a read-write region holding
    ``%esp``: generated loads and stores shortcut to that region (the
    stack, where compiled C keeps its locals). Otherwise the machine
    declines to JIT and stays on the interpreter, with identical
    results.
    """
    return _stack_region(machine) is not None


# -- the engine ---------------------------------------------------------------

class _FormedBlock:
    """A superblock formed once per program, bindable to any machine.

    Holds what :meth:`JitEngine._compile` derives from the program
    alone: the code object (from the process-wide :func:`_code` cache,
    so shared with every block of the same shape; its ``_make`` factory
    takes every program- and machine-specific value as an argument),
    the block's operand values, the instruction addresses, the prebuilt
    fetch accounting and trace segments, and how many bounds guards the
    codegen elided.
    """
    __slots__ = ("code", "consts", "addresses", "fetch_tuples",
                 "fetch_accesses", "fetch_segs", "access_segs", "elided")

    def __init__(self, writer: _Writer) -> None:
        self.consts = tuple(writer.consts)
        self.addresses = addresses = tuple(writer.addresses)
        self.elided = writer.elided
        self.fetch_tuples = self.fetch_accesses = None
        self.fetch_segs = self.access_segs = None
        if writer.record and writer.bus:
            self.fetch_tuples = tuple(("fetch", a, INSTRUCTION_SIZE)
                                      for a in addresses)
            self.fetch_segs = tuple(self.fetch_tuples[a:b]
                                    for a, b in writer.segs)
        if writer.record and writer.trace:
            self.fetch_accesses = tuple(Access("fetch", a, INSTRUCTION_SIZE)
                                        for a in addresses)
            self.access_segs = tuple(self.fetch_accesses[a:b]
                                     for a, b in writer.segs)
        self.code = _code(writer.render())


@functools.lru_cache(maxsize=MAX_CODE)
def _code(source: str):
    """The code object of one block shape, compiled once per process
    for each distinct rendered source and shared by every block, in
    any program, that renders to the same text."""
    return compile(source, "<jit block>", "exec")


class JitEngine:
    """Per-machine superblock dispatch loop over shared code.

    Superblocks are formed once per :class:`Program` (cached in
    ``program.jit_blocks``, keyed by entry address and the
    code-generation settings), compiled once per process for each
    distinct block shape (:func:`_code`) and bound once per machine:
    each engine executes the shared code object into a fresh namespace
    whose block closes over the block's operand values and this
    machine's registers, backing space, stack region and
    pending-accounting list. Dispatch state and
    :class:`JitStats` stay per machine, so ``blocks_compiled`` counts
    the blocks this machine bound, compiled here or not.

    The engine keeps no reference to its machine, and a bound block
    takes the machine and the engine as arguments: the machine owns the
    engine, and nothing points back, so a finished run leaves no
    reference cycle for the garbage collector.
    """

    def __init__(self, machine, *,
                 threshold: int = DEFAULT_THRESHOLD) -> None:
        self.threshold = max(1, threshold)
        self.blocks: dict[int, CompiledBlock] = {}
        self.counts: dict[int, int] = {}
        self.failed: set[int] = set()
        self.stats = JitStats()
        self.pending: list[tuple] = []
        self.fault_steps: int | None = None
        self._trace_ids: dict[int, int] | None = None
        self.backing, replay = _bind(machine.space)
        #: the region generated loads/stores shortcut to (the stack,
        #: where compiled C keeps its locals)
        self.stack_region = _stack_region(machine)
        if self.stack_region is None:
            raise MachineFault("JIT needs a known space type with a "
                               "read-write region holding %esp")
        esp = machine.regs.get("esp")
        #: instruction addresses whose guards may be elided: only when
        #: the optimizer stamped its proof on the program, the machine
        #: is still at the entry state the proof assumed (step 0, eip at
        #: the entry point), and the stack region actually covers the
        #: analysis's safe envelope around the entry %esp
        self.safe: frozenset = frozenset()
        proved = getattr(machine.program, "stack_safe", None)
        if proved and machine.steps == 0 \
                and machine.regs.eip == machine.program.entry_address:
            from repro.analysis.opt import SAFE_HI, SAFE_LO
            region = self.stack_region
            if region.contains(esp + SAFE_LO, 1) \
                    and region.contains(esp + SAFE_HI + 3, 1):
                self.safe = frozenset(proved)
        if replay is None:
            self.flush = None
        else:
            pending = self.pending

            def flush() -> None:
                replay(pending)
                del pending[:]
            self.flush = flush

    # -- dispatch ---------------------------------------------------------

    def run(self, m, max_steps: int, *,
            raise_on_limit: bool = True) -> int:
        """The :meth:`Machine.run` loop of machine ``m`` with block
        dispatch.

        Compiled blocks execute whole; everything else (cold code, the
        approach to the step limit, uncompilable instructions) goes
        through the predecoded handlers one instruction at a time, with
        pending bus accounting flushed first so the memory hierarchy
        sees accesses in exact program order.

        With the recorder enabled, block executions and interpreted
        instructions append (name, ts, instructions) triples to one
        pending stream, bulk-flushed every :data:`TRACE_CHUNK` events
        (and before any fault instant), so buffer order follows
        execution order at a few list appends per dispatch.
        """
        regs = m.regs
        record = m.record_fetches
        space = m.space
        handlers = m._predecode()
        compiled = self.blocks
        counts = self.counts
        failed = self.failed
        threshold = self.threshold
        pending = self.pending
        flush = self.flush
        stats = self.stats
        fetch = space.fetch
        steps = m.steps
        entries = side_exits = jit_steps = 0
        rec = m.recorder
        traced = rec.enabled
        if traced:
            if self._trace_ids is None:
                self._trace_ids = {
                    addr: rec.intern(ins.mnemonic)
                    for addr, ins in m.program.by_address.items()}
            ids = self._trace_ids
            t_track = rec.intern_track("isa", "cpu")
            t_cat = rec.intern("isa")
            t_key = rec.intern("instructions")
            p_names: list[int] = []
            p_ts: list[int] = []
            p_ins: list[int] = []

            def rflush() -> None:
                rec.complete_batch(p_names, p_ts, p_ins, track_id=t_track,
                                   cat_id=t_cat, key_id=t_key, vals=p_ins)
                p_names.clear()
                p_ts.clear()
                p_ins.clear()
        try:
            while not m.halted:
                eip = regs.eip
                blk = compiled.get(eip)
                if blk is not None:
                    if steps + blk.length <= max_steps:
                        next_eip, executed = blk.fn(m, self)
                        if traced:
                            p_names.append(blk.name_id)
                            p_ts.append(steps)
                            p_ins.append(executed)
                            if len(p_names) >= TRACE_CHUNK:
                                rflush()
                        steps += executed
                        entries += 1
                        jit_steps += executed
                        if executed < blk.length:
                            side_exits += 1
                        if next_eip == SENTINEL_RETURN:
                            m.halted = True
                        regs.eip = next_eip & MASK32
                        if len(pending) >= FLUSH_LIMIT:
                            flush()
                        continue
                elif eip not in failed:
                    c = counts.get(eip, 0) + 1
                    if c < threshold:
                        counts[eip] = c
                    else:
                        blk = self._compile(m, eip)
                        if blk is None:
                            failed.add(eip)
                            stats.failures += 1
                        else:
                            compiled[eip] = blk
                            counts.pop(eip, None)
                            stats.blocks_compiled += 1
                            continue
                # interpreter path: one predecoded instruction
                if steps >= max_steps:
                    if raise_on_limit:
                        raise MachineFault(
                            "step limit exceeded (infinite loop?)")
                    break
                handler = handlers.get(eip)
                if handler is None:
                    raise MachineFault(_fell_off(eip, steps))
                if pending:
                    flush()
                if record:
                    fetch(eip, INSTRUCTION_SIZE)
                next_eip = handler(m, eip + INSTRUCTION_SIZE)
                if traced:
                    p_names.append(ids[eip])
                    p_ts.append(steps)
                    p_ins.append(1)
                    if len(p_names) >= TRACE_CHUNK:
                        rflush()
                if next_eip == SENTINEL_RETURN:
                    m.halted = True
                regs.eip = next_eip & MASK32
                steps += 1
        except BaseException as exc:
            if self.fault_steps is not None:
                if traced:
                    # the faulting block's partial run, span included
                    p_names.append(blk.name_id)
                    p_ts.append(steps)
                    p_ins.append(self.fault_steps)
                steps += self.fault_steps
                jit_steps += self.fault_steps
                entries += 1
                self.fault_steps = None
            if traced:
                rflush()
                rec.instant("fault", ts=steps, pid="isa", tid="cpu",
                            cat="isa",
                            args={"eip": regs.eip, "what": str(exc)})
            raise
        finally:
            m.steps = steps
            stats.entries += entries
            stats.side_exits += side_exits
            stats.jit_steps += jit_steps
            if pending:
                flush()
            if traced and p_names:
                rflush()
        return regs.get_signed("eax")

    # -- compilation ------------------------------------------------------

    def _compile(self, m, entry: int) -> CompiledBlock | None:
        """Bind the superblock at ``entry`` (None: give up), forming and
        compiling it first unless this program already has it."""
        program = m.program
        record = m.record_fetches
        bus = self.flush is not None
        trace = self.backing.trace_enabled
        key = (entry, record, bus, trace, bool(self.safe))
        try:
            formed = program.jit_blocks[key]
        except KeyError:
            if program.asm_cfg is None:
                program.asm_cfg = build_asm_cfg(program)
            writer = _Writer(record=record, bus=bus, trace=trace,
                             safe=self.safe)
            self._form(writer, program.asm_cfg, entry)
            formed = _FormedBlock(writer) if writer.addresses else None
            program.jit_blocks[key] = formed
        if formed is None:
            return None
        if record and not self._fetchable(formed.addresses):
            return None               # the interpreter faults identically
        self.stats.guards_elided += formed.elided
        return self._bind_block(m, formed, entry)

    def _fetchable(self, addresses: tuple[int, ...]) -> bool:
        """Would every fetch in this block succeed? (Compile-time check
        replacing the per-step executable test the scalar fetch does.)"""
        for addr in addresses:
            try:
                region = self.backing.region_for(addr, INSTRUCTION_SIZE)
            except CMemoryError:
                return False
            if not region.executable:
                return False
        return True

    def _form(self, writer: _Writer, cfg, entry: int) -> None:
        """Walk the asm CFG from ``entry``, emitting until an exit."""
        seen: set[int] = set()
        addr = entry
        while not writer.closed:
            if addr in seen or len(writer.addresses) >= MAX_BLOCK:
                writer.exit_const(addr)        # loop closed / length cap
                return
            got = cfg.run_from(addr)
            if got is None:
                writer.exit_const(addr)        # fell off: interpreter raises
                return
            instrs, term, target, fall = got
            plain = instrs if term == "fall" else instrs[:-1]
            for ins in plain:
                if len(writer.addresses) >= MAX_BLOCK:
                    writer.exit_const(ins.address)
                    return
                mark = writer.mark()
                try:
                    writer.plain(ins)
                except _Unsupported:
                    writer.rollback(mark)
                    writer.exit_const(ins.address)
                    return
                seen.add(ins.address)
            if term == "fall":
                addr = fall
                continue
            last = instrs[-1]
            if len(writer.addresses) >= MAX_BLOCK:
                writer.exit_const(last.address)
                return
            mark = writer.mark()
            try:
                if term == "jmp":
                    writer.jump(last)
                    seen.add(last.address)
                    addr = target
                elif term == "indirect":
                    writer.jump_indirect(last)
                elif term == "jcc":
                    writer.side_exit(last)
                    seen.add(last.address)
                    addr = fall
                elif term == "call":
                    nxt = writer.call(last)
                    if nxt is None:
                        return
                    seen.add(last.address)
                    addr = nxt
                elif term == "ret":
                    writer.ret(last)
                else:                          # halt
                    writer.halt(last)
            except _Unsupported:
                writer.rollback(mark)
                writer.exit_const(last.address)
                return

    def _bind_block(self, m, formed: _FormedBlock,
                    entry: int) -> CompiledBlock:
        namespace: dict = {"Access": Access}
        exec(formed.code, namespace)  # noqa: S102
        # popped, so the namespace (the block's globals) does not hold
        # the factory that holds the namespace
        fn = namespace.pop("_make")(m, self, formed.addresses,
                                    formed.fetch_tuples,
                                    formed.fetch_accesses, formed.fetch_segs,
                                    formed.access_segs, MachineFault,
                                    formed.consts)
        rec = m.recorder
        name_id = rec.intern(f"block {entry:#x}") if rec.enabled else -1
        return CompiledBlock(entry, len(formed.addresses), fn, name_id)
