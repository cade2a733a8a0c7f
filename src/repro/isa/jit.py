"""Superblock JIT for the ISA machine.

The predecoded :meth:`~repro.isa.machine.Machine.run` loop still pays
Python's dispatch tax once per instruction: a dict lookup, a closure
call, attribute traffic on the register file and flag object, and a bus
round-trip per memory access. This module compiles *hot* code — entry
addresses the interpreter keeps revisiting — into one Python closure
per superblock, with registers and flags held in local variables.

A superblock starts at any hot address and follows the straight-line
path through the program's assembled CFG (:func:`build_asm_cfg`):
fall-through edges and static ``jmp``/``call`` targets extend it;
conditional jumps compile to *side exits* (return to the dispatcher
with the taken target); ``ret``, indirect jumps, ``halt``, a revisited
address (a loop closed), an unsupported instruction, or the length cap
end it. The common loop therefore becomes a single closure executed
once per iteration.

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
  engines (``CacheHierarchy.simulate_trace``, ``MMU.translate_many``)
  replace per-access scalar simulation. Pending accounting is flushed
  before any interpreted instruction and on every fault, so the
  hierarchy always sees the exact scalar access sequence.

The JIT declines work instead of approximating it: byte-width
instructions, sub-register operands, and unknown space types fall back
to the predecoded interpreter.

An enabled recorder composes with the JIT instead of disabling it:
every block execution records one complete-span (``block 0x...`` on
the ``isa/cpu`` track, ``dur`` and ``args["instructions"]`` = the
instructions it retired, including partial side-exit and fault runs),
and instructions the dispatcher still interprets record one span each
— all batched through the recorder's bulk-append path, so tracing
costs the dispatch loop two list appends per block entry. That is the
JIT's span granularity: per-instruction ``eip`` args (and fetch
instants) exist only on the interpreter paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import build_asm_cfg
from repro.binary.twos_complement import MASK32
from repro.clib.address_space import Access, AddressSpace
from repro.errors import CMemoryError, MachineFault
from repro.isa.instructions import (
    Immediate,
    INSTRUCTION_SIZE,
    LabelRef,
    Memory,
    Register,
)
from repro.isa.machine import SENTINEL_RETURN, _fell_off
from repro.isa.registers import GP32

#: interpreter visits to one address before it is compiled
DEFAULT_THRESHOLD = 8
#: longest superblock, in instructions
MAX_BLOCK = 64
#: pending bus-accounting entries that force a flush at a block boundary
FLUSH_LIMIT = 1 << 16
#: pending trace spans per bulk append when the recorder is enabled
TRACE_CHUNK = 4096

_M32 = "4294967295"          # MASK32
_SIGN = "2147483648"         # 0x8000_0000

#: conditional-jump predicates over the flag locals (zf/sf/cf/of) —
#: the codegen image of machine._JUMP_CONDITIONS
_COND_SRC = {
    "je": "zf", "jne": "not zf",
    "jg": "not zf and sf == of", "jge": "sf == of",
    "jl": "sf != of", "jle": "zf or sf != of",
    "ja": "not cf and not zf", "jae": "not cf",
    "jb": "cf", "jbe": "cf or zf",
    "js": "sf", "jns": "not sf",
}

_ARITH2 = {"addl", "subl", "cmpl"}
_LOGIC = {"andl", "orl", "xorl", "testl"}
_SHIFTS = {"sall", "shll", "sarl", "shrl"}


class _Unsupported(Exception):
    """This instruction can't be compiled; the block ends before it."""


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
    """(backing AddressSpace, replay callable or None) for a machine space.

    Returns ``(None, None)`` when the space type is unknown — the
    machine then declines to JIT and stays on the interpreter.
    """
    if isinstance(space, AddressSpace):
        return space, None
    from repro.system.bus import CachedBus, FlatBus, ProcessView
    if isinstance(space, (FlatBus, CachedBus, ProcessView)):
        return space.space, space.replay_block
    return None, None


def supports(space) -> bool:
    """Can the JIT run over this machine's memory?"""
    return _bind(space)[0] is not None


# -- code generation ----------------------------------------------------------
#
# One generated source module per superblock, compiled once per program.
# The factory (`_make`) takes everything machine-specific as arguments
# and closes over the machine's register dict, flag object, backing
# space, and the engine's pending-accounting list; `block()` is the
# compiled body. Every value written to a register local is already
# masked to 32 bits (the same invariant the predecoded writers keep), so
# writeback is a plain store. Generated code returns
# `(next_eip, executed)`; the dispatcher replicates run()'s
# sentinel/masking/step logic.

class _Writer:
    def __init__(self, *, record: bool, bus: bool, trace: bool,
                 fast: bool = False,
                 safe: frozenset = frozenset()) -> None:
        self.body: list[str] = []
        self.addresses: list[int] = []
        self.used: set[str] = set()
        self.record = record
        self.bus = bus
        self.trace = trace
        self.fast = fast
        # instruction addresses whose memory accesses the optimizer's
        # range analysis proved inside the stack region — those compile
        # without the bounds compare (watcher check only)
        self.safe = safe
        self.cur_safe = False
        self.elided = 0
        self._t = 0
        self.closed = False
        # deferred fetch accounting: consecutive fetch-only instructions
        # batch into one list.extend of a prebuilt segment (see segs);
        # flushed before anything that interleaves with or aborts them
        self._frun: list[int] = []
        self.segs: list[tuple[int, int]] = []

    # -- small helpers ---------------------------------------------------

    def temp(self, prefix: str) -> str:
        self._t += 1
        return f"{prefix}{self._t}"

    def mark(self) -> tuple[int, int, int, int, int]:
        return (len(self.body), len(self.addresses),
                len(self._frun), len(self.segs), self.elided)

    def rollback(self, mark: tuple[int, int, int, int, int]) -> None:
        """Drop everything emitted since ``mark`` (unsupported ins)."""
        del self.body[mark[0]:]
        del self.addresses[mark[1]:]
        del self._frun[mark[2]:]
        del self.segs[mark[3]:]
        self.elided = mark[4]

    def reg(self, name: str) -> str:
        if name not in GP32:
            raise _Unsupported(name)
        self.used.add(name)
        return name

    def emit(self, line: str) -> None:
        self.body.append(line)

    def _ea(self, op: Memory) -> str:
        parts = []
        if op.base:
            parts.append(self.reg(op.base))
        if op.index:
            idx = self.reg(op.index)
            parts.append(idx if op.scale == 1 else f"{idx} * {op.scale}")
        if not parts:
            return str(op.displacement & MASK32)
        if op.displacement:
            parts.insert(0, str(op.displacement))
        return f"({' + '.join(parts)}) & {_M32}"

    def _load_lines(self, a: str) -> str:
        """Emit a guarded 4-byte load from the address atom ``a``.

        The fast branch reads the stack region's bytearray directly —
        sound because the guard proves the access in-bounds in a region
        whose (static) permissions allow it, and the scalar path keeps
        handling everything else: other regions, faults, and any
        attached watcher (``W`` is the live watcher list, so attaching
        one mid-run disables the shortcut for every later access).

        When the optimizer's range analysis proved this instruction's
        accesses inside the stack region (``cur_safe``), the bounds
        compare is elided — only the watcher check remains."""
        v = self.temp("v")
        if not self.fast:
            self.emit(f"{v} = load({a}, 4)")
            return v
        o = self.temp("o")
        self.emit(f"{o} = {a} - SB")
        if self.cur_safe:
            self.elided += 1
            self.emit("if W:")
        else:
            self.emit(f"if W or not 0 <= {o} <= SL:")
        self.emit(f"    {v} = load({a}, 4)")
        self.emit("else:")
        self.emit(f"    {v} = ifb(SD[{o}:{o} + 4], 'little')")
        if self.trace:
            self.emit(f"    tr(Access('load', {a}, 4))")
        return v

    def _store_lines(self, a: str, value: str) -> None:
        """Emit a guarded 4-byte store (value already masked)."""
        if not self.fast:
            self.emit(f"store({a}, {value}, 4)")
            return
        o = self.temp("o")
        self.emit(f"{o} = {a} - SB")
        if self.cur_safe:
            self.elided += 1
            self.emit("if W:")
        else:
            self.emit(f"if W or not 0 <= {o} <= SL:")
        self.emit(f"    store({a}, {value}, 4)")
        self.emit("else:")
        self.emit(f"    SD[{o}:{o} + 4] = ({value}).to_bytes(4, 'little')")
        if self.trace:
            self.emit(f"    tr(Access('store', {a}, 4))")

    def read32(self, op) -> str:
        """Emit any load lines; return an atom for the operand's value."""
        if isinstance(op, Immediate):
            return str(op.value & MASK32)
        if isinstance(op, Register):
            return self.reg(op.name)
        if isinstance(op, LabelRef):
            if op.address is None:
                raise _Unsupported("unresolved label")
            return str(op.address)
        if isinstance(op, Memory):
            self.flush_fetches()
            a = self.temp("a")
            self.emit(f"{a} = {self._ea(op)}")
            v = self._load_lines(a)
            if self.bus:
                self.emit(f"pend(('load', {a}, 4))")
            return v
        raise _Unsupported(repr(op))

    def write32(self, op, value: str) -> None:
        """Store an already-masked 32-bit value into the destination."""
        if isinstance(op, Register):
            self.emit(f"{self.reg(op.name)} = {value}")
            return
        if isinstance(op, Memory):
            self.flush_fetches()
            a = self.temp("a")
            self.emit(f"{a} = {self._ea(op)}")
            self._store_lines(a, value)
            if self.bus:
                self.emit(f"pend(('store', {a}, 4))")
            return
        raise _Unsupported(repr(op))

    def signed(self, raw: str) -> str:
        v = self.temp("s")
        self.emit(f"{v} = {raw} - 4294967296 if {raw} & {_SIGN} else {raw}")
        return v

    def flags_from_value(self, value: str) -> None:
        self.emit(f"zf = {value} == 0")
        self.emit(f"sf = ({value} & {_SIGN}) != 0")

    def writeback_lines(self) -> list[str]:
        lines = [f"_r['{r}'] = {r}" for r in sorted(self.used)]
        lines += ["flags.zf = zf", "flags.sf = sf",
                  "flags.cf = cf", "flags.of = of"]
        return lines

    # -- per-instruction emission ---------------------------------------

    def begin(self, ins, *, risky: bool) -> int:
        """Per-instruction prologue: step index, fetch trace/accounting.

        The fetch itself is deferred into ``_frun``; a risky instruction
        flushes the run first (its own fetch included — the scalar path
        fetches before executing) so a fault never leaves earlier
        fetches unaccounted or later ones over-accounted.
        """
        i = len(self.addresses)
        self.addresses.append(ins.address)
        self.cur_safe = ins.address in self.safe
        if self.record:
            self._frun.append(i)
        if risky:
            self.flush_fetches()
            self.emit(f"n = {i}")
        return i

    def flush_fetches(self) -> None:
        """Emit the deferred fetch run: one extend per multi-fetch
        segment, a plain append for a run of one. Sound because the run
        contains only fetches with nothing accounted between them, so
        their relative order (the only order) is preserved."""
        if not self._frun:
            return
        a, b = self._frun[0], self._frun[-1] + 1
        self._frun.clear()
        if b - a == 1:
            if self.bus:
                self.emit(f"pend(FT[{a}])")
            if self.trace:
                self.emit(f"tr(FA[{a}])")
            return
        k = len(self.segs)
        self.segs.append((a, b))
        if self.bus:
            self.emit(f"ext(FS[{k}])")
        if self.trace:
            self.emit(f"trx(AS[{k}])")

    def exit_const(self, target: int) -> None:
        """Leave the block for a known address (nothing executed here)."""
        self.flush_fetches()
        self.emit(f"return ({target}, {len(self.addresses)})")
        self.closed = True

    def exit_dynamic(self, expr: str) -> None:
        self.flush_fetches()
        self.emit(f"return ({expr}, {len(self.addresses)})")
        self.closed = True

    def plain(self, ins) -> None:
        """One straight-line instruction (never a control transfer)."""
        m = ins.mnemonic
        ops = ins.operands
        mem = any(isinstance(o, Memory) for o in ops)
        risky = mem or m in ("pushl", "popl", "leave", "idivl")
        self.begin(ins, risky=risky)

        if m == "nop":
            return
        if m == "movl":
            self.write32(ops[1], self.read32(ops[0]))
            return
        if m == "leal":
            if not isinstance(ops[0], Memory):
                raise _Unsupported("leal needs a memory source")
            self.write32(ops[1], self._ea(ops[0]))
            return
        if m in _ARITH2:
            src = self.read32(ops[0])
            dst = self.read32(ops[1])
            v = self.temp("v")
            if m == "addl":
                w = self.temp("w")
                self.emit(f"{w} = {dst} + {src}")
                self.emit(f"{v} = {w} & {_M32}")
                self.emit(f"cf = {w} > {_M32}")
                self.emit(f"of = (~({dst} ^ {src}) & ({dst} ^ {v})"
                          f" & {_SIGN}) != 0")
            else:
                self.emit(f"{v} = ({dst} - {src}) & {_M32}")
                self.emit(f"cf = {dst} < {src}")
                self.emit(f"of = (({dst} ^ {src}) & ({dst} ^ {v})"
                          f" & {_SIGN}) != 0")
            self.flags_from_value(v)
            if m != "cmpl":
                self.write32(ops[1], v)
            return
        if m == "imull":
            src = self.read32(ops[0])
            dst = self.read32(ops[1])
            ss = self.signed(src)
            sd = self.signed(dst)
            e = self.temp("e")
            v = self.temp("v")
            self.emit(f"{e} = {sd} * {ss}")
            self.emit(f"{v} = {e} & {_M32}")
            self.emit(f"cf = of = not -{_SIGN} <= {e} <= 2147483647")
            self.flags_from_value(v)
            self.write32(ops[1], v)
            return
        if m in _LOGIC:
            # predecode evaluates dst before src here; keep that order
            dst = self.read32(ops[1])
            src = self.read32(ops[0])
            bitop = {"andl": "&", "orl": "|", "xorl": "^", "testl": "&"}[m]
            v = self.temp("v")
            self.emit(f"{v} = {dst} {bitop} {src}")
            self.emit("cf = False")
            self.emit("of = False")
            self.flags_from_value(v)
            if m != "testl":
                self.write32(ops[1], v)
            return
        if m in _SHIFTS:
            self._shift(m, ops)
            return
        if m == "notl":
            raw = self.read32(ops[0])
            v = self.temp("v")
            self.emit(f"{v} = ~{raw} & {_M32}")
            self.write32(ops[0], v)
            return
        if m == "negl":
            raw = self.read32(ops[0])
            v = self.temp("v")
            self.emit(f"{v} = (0 - {raw}) & {_M32}")
            self.emit(f"cf = {raw} != 0")
            self.emit(f"of = ({raw} & {v} & {_SIGN}) != 0")
            self.flags_from_value(v)
            self.write32(ops[0], v)
            return
        if m in ("incl", "decl"):
            dst = self.read32(ops[0])
            v = self.temp("v")
            if m == "incl":
                self.emit(f"{v} = ({dst} + 1) & {_M32}")
                self.emit(f"of = (~({dst} ^ 1) & ({dst} ^ {v})"
                          f" & {_SIGN}) != 0")
            else:
                self.emit(f"{v} = ({dst} - 1) & {_M32}")
                self.emit(f"of = (({dst} ^ 1) & ({dst} ^ {v})"
                          f" & {_SIGN}) != 0")
            self.flags_from_value(v)          # cf preserved, as on x86
            self.write32(ops[0], v)
            return
        if m == "cltd":
            eax = self.reg("eax")
            edx = self.reg("edx")
            self.emit(f"{edx} = {_M32} if {eax} & {_SIGN} else 0")
            return
        if m == "idivl":
            self._idivl(ops)
            return
        if m == "pushl":
            self._push(self.read32(ops[0]))
            return
        if m == "popl":
            v = self._pop()
            self.write32(ops[0], v)
            return
        if m == "leave":
            esp = self.reg("esp")
            ebp = self.reg("ebp")
            self.emit(f"{esp} = {ebp}")
            v = self._pop()
            self.emit(f"{ebp} = {v}")
            return
        raise _Unsupported(m)

    def _shift(self, m: str, ops) -> None:
        left = m in ("sall", "shll")
        arith = m == "sarl"
        count = self.read32(ops[0])
        raw = self.read32(ops[1])
        if isinstance(ops[0], Immediate):
            c = (ops[0].value & MASK32) & 0x1F
            if not c:
                return                 # count 0: flags and dst untouched
            v = self.temp("v")
            if left:
                self.emit(f"cf = (({raw} >> {32 - c}) & 1) != 0")
                self.emit(f"{v} = ({raw} << {c}) & {_M32}")
            elif arith:
                s = self.signed(raw)
                self.emit(f"cf = (({raw} >> {c - 1}) & 1) != 0")
                self.emit(f"{v} = ({s} >> {c}) & {_M32}")
            else:
                self.emit(f"cf = (({raw} >> {c - 1}) & 1) != 0")
                self.emit(f"{v} = {raw} >> {c}")
            self.emit("of = False")
            self.flags_from_value(v)
            self.write32(ops[1], v)
            return
        c = self.temp("c")
        v = self.temp("v")
        self.emit(f"{c} = {count} & 31")
        self.emit(f"if {c}:")
        inner = len(self.body)
        if left:
            self.emit(f"cf = (({raw} >> (32 - {c})) & 1) != 0")
            self.emit(f"{v} = ({raw} << {c}) & {_M32}")
        elif arith:
            self.emit(f"{v} = ({raw} - 4294967296 if {raw} & {_SIGN}"
                      f" else {raw}) >> {c} & {_M32}")
            self.emit(f"cf = (({raw} >> ({c} - 1)) & 1) != 0")
        else:
            self.emit(f"cf = (({raw} >> ({c} - 1)) & 1) != 0")
            self.emit(f"{v} = {raw} >> {c}")
        self.emit("of = False")
        self.flags_from_value(v)
        self.write32(ops[1], v)
        # indent everything after the `if` one level
        for j in range(inner, len(self.body)):
            self.body[j] = "    " + self.body[j]

    def _idivl(self, ops) -> None:
        eax = self.reg("eax")
        edx = self.reg("edx")
        src = self.read32(ops[0])
        sd = self.signed(src)
        dv = self.temp("d")
        q = self.temp("q")
        r = self.temp("r")
        self.emit(f"if {sd} == 0:")
        self.emit("    raise MachineFault"
                  "('divide error: division by zero')")
        self.emit(f"{dv} = ({edx} << 32) | {eax}")
        self.emit(f"if {dv} & 9223372036854775808:")
        self.emit(f"    {dv} -= 18446744073709551616")
        self.emit(f"{q} = abs({dv}) // abs({sd})")
        self.emit(f"if ({dv} < 0) != ({sd} < 0):")
        self.emit(f"    {q} = -{q}")
        self.emit(f"{r} = {dv} - {q} * {sd}")
        self.emit(f"if not -{_SIGN} <= {q} < {_SIGN}:")
        self.emit("    raise MachineFault"
                  "('divide error: quotient overflow')")
        self.emit(f"{eax} = {q} & {_M32}")
        self.emit(f"{edx} = {r} & {_M32}")

    def _push(self, value: str) -> None:
        self.flush_fetches()
        esp = self.reg("esp")
        if value == esp:                 # pushl %esp pushes the OLD value
            value = self.temp("v")
            self.emit(f"{value} = {esp}")
        self.emit(f"{esp} = ({esp} - 4) & {_M32}")   # esp moves first,
        self._store_lines(esp, value)                # as in Machine.push
        if self.bus:
            self.emit(f"pend(('store', {esp}, 4))")

    def _pop(self) -> str:
        self.flush_fetches()
        esp = self.reg("esp")
        v = self._load_lines(esp)
        if self.bus:
            self.emit(f"pend(('load', {esp}, 4))")
        self.emit(f"{esp} = ({esp} + 4) & {_M32}")
        return v

    # -- control transfers ----------------------------------------------

    def jump(self, ins) -> None:
        """A followed static jmp: one step, fetch accounting only."""
        self.begin(ins, risky=False)

    def jump_indirect(self, ins) -> None:
        target = ins.operands[0]
        if not isinstance(target, Register) or target.name not in GP32:
            raise _Unsupported("indirect jmp operand")
        self.begin(ins, risky=False)
        self.exit_dynamic(self.reg(target.name))

    def side_exit(self, ins) -> None:
        """jcc: taken leaves the block, not-taken continues inline."""
        op = ins.operands[0]
        if isinstance(op, LabelRef) and op.address is not None:
            target = str(op.address)
        elif isinstance(op, Register) and op.name in GP32:
            target = self.reg(op.name)
        else:
            raise _Unsupported("jcc operand")
        i = self.begin(ins, risky=False)
        self.flush_fetches()           # a taken branch must not leave
        self.emit(f"if {_COND_SRC[ins.mnemonic]}:")   # its fetch pending
        self.emit(f"    return ({target}, {i + 1})")

    def call(self, ins) -> int | None:
        """call: push the return address; returns the static target to
        keep compiling into, or None after emitting a dynamic exit."""
        op = ins.operands[0]
        if isinstance(op, LabelRef) and op.address is not None:
            self.begin(ins, risky=True)
            self._push(str((ins.address + INSTRUCTION_SIZE) & MASK32))
            return op.address
        if isinstance(op, Register) and op.name in GP32:
            self.begin(ins, risky=True)
            self._push(str((ins.address + INSTRUCTION_SIZE) & MASK32))
            self.exit_dynamic(self.reg(op.name))   # read after the push
            return None
        raise _Unsupported("call operand")

    def ret(self, ins) -> None:
        self.begin(ins, risky=True)
        self.exit_dynamic(self._pop())

    def halt(self, ins) -> None:
        self.begin(ins, risky=False)
        self.emit("m.halted = True")
        self.exit_const((ins.address + INSTRUCTION_SIZE) & MASK32)

    # -- assembly of the module source -----------------------------------

    def render(self) -> str:
        head = ["def _make(m, eng, A, FT, FA, FS, AS, MachineFault):",
                "    regs = m.regs",
                "    _r = regs._regs",
                "    flags = regs.flags",
                "    load = eng.backing.load_uint",
                "    store = eng.backing.store_uint"]
        if self.bus:
            head += ["    pend = eng.pending.append",
                     "    ext = eng.pending.extend"]
        if self.trace:
            head.append("    tr = eng.backing.trace.append")
        if self.record and self.trace:
            head.append("    trx = eng.backing.trace.extend")
        if self.fast:
            head += ["    W = eng.backing._watchers",
                     "    SB = eng.stack_region.start",
                     "    SL = eng.stack_region.size - 4",
                     "    SD = eng.stack_region.data",
                     "    ifb = int.from_bytes"]
        head.append("    def block():")
        lines = head
        for r in sorted(self.used):
            lines.append(f"        {r} = _r['{r}']")
        lines += ["        zf = flags.zf", "        sf = flags.sf",
                  "        cf = flags.cf", "        of = flags.of",
                  "        n = 0",
                  "        try:"]
        lines += ["            " + b for b in self.body]
        lines += ["        except BaseException:",
                  "            regs.eip = A[n]",
                  "            eng.fault_steps = n",
                  "            raise",
                  "        finally:"]
        lines += ["            " + w for w in self.writeback_lines()]
        lines.append("    return block")
        return "\n".join(lines) + "\n"


# -- the engine ---------------------------------------------------------------

class _FormedBlock:
    """A superblock compiled once per program, bindable to any machine.

    Holds what :meth:`JitEngine._compile` derives from the program
    alone: the code object (whose ``_make`` factory takes every
    machine-specific value as an argument), the instruction addresses,
    the prebuilt fetch accounting and trace segments, and how many
    bounds guards the codegen elided.
    """
    __slots__ = ("code", "addresses", "fetch_tuples", "fetch_accesses",
                 "fetch_segs", "access_segs", "elided")

    def __init__(self, writer: _Writer, entry: int) -> None:
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
        self.code = compile(writer.render(), f"<jit block {entry:#x}>",
                            "exec")


class JitEngine:
    """Per-machine superblock dispatch loop over per-program code.

    Superblocks are formed and compiled once per :class:`Program`
    (cached in ``program.jit_blocks``, keyed by entry address and the
    code-generation settings) and bound once per machine: each engine
    executes the shared code object into a fresh namespace whose block
    closes over this machine's registers, backing space, stack region
    and pending-accounting list. Dispatch state and :class:`JitStats`
    stay per machine.
    """

    def __init__(self, machine, *, threshold: int = DEFAULT_THRESHOLD,
                 max_block: int = MAX_BLOCK) -> None:
        self.machine = machine
        self.threshold = max(1, threshold)
        self.max_block = max_block
        self.blocks: dict[int, CompiledBlock] = {}
        self.counts: dict[int, int] = {}
        self.failed: set[int] = set()
        self.stats = JitStats()
        self.pending: list[tuple] = []
        self.fault_steps: int | None = None
        self._trace_ids: dict[int, int] | None = None
        self.backing, replay = _bind(machine.space)
        if self.backing is None:
            raise MachineFault(
                f"JIT cannot run over {type(machine.space).__name__}")
        #: the region generated loads/stores shortcut to (the stack,
        #: where compiled C keeps its locals); None disables the inline
        #: fast path and every access takes the scalar AddressSpace road
        self.stack_region = None
        esp = machine.regs.get("esp")
        for region in self.backing.regions:
            if region.readable and region.writable \
                    and region.contains(esp, 1):
                self.stack_region = region
                break
        #: instruction addresses whose guards may be elided: only when
        #: the optimizer stamped its proof on the program, the machine
        #: is still at the entry state the proof assumed (step 0, eip at
        #: the entry point), and the stack region actually covers the
        #: analysis's safe envelope around the entry %esp
        self.safe: frozenset = frozenset()
        proved = getattr(machine.program, "stack_safe", None)
        if proved and self.stack_region is not None \
                and machine.steps == 0 \
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

    def run(self, max_steps: int, *, raise_on_limit: bool = True) -> int:
        """The :meth:`Machine.run` loop with block dispatch.

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
        m = self.machine
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
                        next_eip, executed = blk.fn()
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
                        blk = self._compile(eip)
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

    def _compile(self, entry: int) -> CompiledBlock | None:
        """Bind the superblock at ``entry`` (None: give up), forming and
        compiling it first unless this program already has it."""
        m = self.machine
        program = m.program
        record = m.record_fetches
        bus = self.flush is not None
        trace = self.backing.trace_enabled
        fast = self.stack_region is not None
        key = (entry, record, bus, trace, fast, bool(self.safe),
               self.max_block)
        try:
            formed = program.jit_blocks[key]
        except KeyError:
            if program.asm_cfg is None:
                program.asm_cfg = build_asm_cfg(program)
            writer = _Writer(record=record, bus=bus, trace=trace,
                             fast=fast, safe=self.safe)
            self._form(writer, program.asm_cfg, entry)
            formed = _FormedBlock(writer, entry) if writer.addresses \
                else None
            program.jit_blocks[key] = formed
        if formed is None:
            return None
        if record and not self._fetchable(formed.addresses):
            return None               # the interpreter faults identically
        self.stats.guards_elided += formed.elided
        return self._bind_block(formed, entry)

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
            if addr in seen or len(writer.addresses) >= self.max_block:
                writer.exit_const(addr)        # loop closed / length cap
                return
            got = cfg.run_from(addr)
            if got is None:
                writer.exit_const(addr)        # fell off: interpreter raises
                return
            instrs, term, target, fall = got
            plain = instrs if term == "fall" else instrs[:-1]
            for ins in plain:
                if len(writer.addresses) >= self.max_block:
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
            if len(writer.addresses) >= self.max_block:
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

    def _bind_block(self, formed: _FormedBlock,
                    entry: int) -> CompiledBlock:
        namespace: dict = {"Access": Access}
        exec(formed.code, namespace)  # noqa: S102
        fn = namespace["_make"](self.machine, self, formed.addresses,
                                formed.fetch_tuples, formed.fetch_accesses,
                                formed.fetch_segs, formed.access_segs,
                                MachineFault)
        rec = self.machine.recorder
        name_id = rec.intern(f"block {entry:#x}") if rec.enabled else -1
        return CompiledBlock(entry, len(formed.addresses), fn, name_id)
