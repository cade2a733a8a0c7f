"""Python code generation for the IA-32 subset.

One writer, :class:`_Writer`, turns decoded instructions into Python
source. It has two modes:

* *Superblock* mode (:mod:`repro.isa.jit`): a straight-line run of
  instructions with registers and flags held in local variables,
  written back on exit, and bus accounting deferred to a pending list
  of packed access records (one int each, see
  :func:`~repro.clib.address_space.encode_access`).
  Operand values (immediates, displacements, branch targets, return
  addresses) are named slots ``K0, K1, ...`` of an argument, not
  literals, so the text is the block's shape and one compiled shape
  serves every block that has it.
* *Handler* mode (:func:`handler`): one instruction as a function
  ``h(m, nxt) -> next_eip``. Registers and flags are read and written
  in place (``m.regs._regs[...]``, ``m.regs.flags.*``), so emission
  order is mutation order and nothing needs writing back; loads and
  stores go through ``m.space``, which accounts each access or, on a
  run that defers its bus accounting, queues it for a batch. ``call``
  pushes ``nxt``, so a handler does not depend on its instruction's
  address and is shared by every instruction of the same form. These
  are the interpreter's predecoded handlers
  (:meth:`~repro.isa.machine.Machine.run`).

The writer declines what it does not model (byte-width operations,
sub-register operands, illegal operand forms) by raising
:class:`_Unsupported`. A superblock then ends before the instruction; a
handler falls back to :meth:`~repro.isa.machine.Machine._execute`, the
``step()`` interpreter's body, so it matches the oracle by construction.

Mutation order is transcribed from the interpreter instruction by
instruction (``pushl`` moves ``%esp`` before the store, flags update
before a memory destination is written), so a fault observes the same
partial state on every path.
"""

from __future__ import annotations

import functools

from repro.binary.twos_complement import MASK32
from repro.clib.address_space import KIND_SHIFT, LOAD, SIZE_SHIFT, STORE
from repro.errors import MachineFault
from repro.isa.instructions import (
    Immediate,
    Instruction,
    INSTRUCTION_SIZE,
    LabelRef,
    Memory,
    Register,
)
from repro.isa.registers import GP32
from repro.isa.semantics import ADDSUB, COND_SRC, FLAG_NAME, LOGIC, SHIFTS

_M32 = "4294967295"          # MASK32
_SIGN = "2147483648"         # 0x8000_0000


class _Unsupported(Exception):
    """The writer does not model this instruction."""


class _Writer:
    def __init__(self, *, record: bool = False, bus: bool = False,
                 trace: bool = False, safe: frozenset = frozenset(),
                 handler: bool = False) -> None:
        self.body: list[str] = []
        self.addresses: list[int] = []
        self.used: set[str] = set()
        self.record = record
        self.bus = bus
        self.trace = trace
        #: one-instruction handler mode (see the module docstring)
        self.handler = handler
        self.flags_used = False
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
        #: superblock mode: the operand values (immediates,
        #: displacements, branch targets, return addresses) in emission
        #: order, passed to ``_make`` as ``K`` so the rendered text
        #: depends only on the block's shape
        self.consts: list[int] = []

    # -- small helpers ---------------------------------------------------

    def temp(self, prefix: str) -> str:
        self._t += 1
        return f"{prefix}{self._t}"

    def mark(self) -> tuple[int, int, int, int, int, int]:
        return (len(self.body), len(self.addresses),
                len(self._frun), len(self.segs), self.elided,
                len(self.consts))

    def rollback(self, mark: tuple[int, int, int, int, int, int]) -> None:
        """Drop everything emitted since ``mark`` (unsupported ins)."""
        del self.body[mark[0]:]
        del self.addresses[mark[1]:]
        del self._frun[mark[2]:]
        del self.segs[mark[3]:]
        self.elided = mark[4]
        del self.consts[mark[5]:]

    def const(self, value: int) -> str:
        """An atom for one operand value: the literal in handler mode
        (handlers are cached per operand form), else the name of its
        slot in ``K``."""
        if self.handler:
            return str(value)
        self.consts.append(value)
        return f"K{len(self.consts) - 1}"

    def reg(self, name: str) -> str:
        if name not in GP32:
            raise _Unsupported(name)
        self.used.add(name)
        return f"_r['{name}']" if self.handler else name

    def flag(self, name: str) -> str:
        if self.handler:
            self.flags_used = True
            return f"f.{name}"
        return name

    def cond(self, mnemonic: str) -> str:
        """The jump predicate of ``mnemonic`` over this mode's flags."""
        return FLAG_NAME.sub(lambda mo: self.flag(mo.group()),
                             COND_SRC[mnemonic])

    def next_address(self, ins) -> str:
        """The fall-through %eip (``nxt`` in handler mode)."""
        if self.handler:
            return "nxt"
        return self.const((ins.address + INSTRUCTION_SIZE) & MASK32)

    def emit(self, line: str) -> None:
        self.body.append(line)

    def _pend(self, a: str, kind: int) -> None:
        """Defer the bus accounting of a 4-byte access at the address
        atom ``a``: append its packed record (see
        :func:`~repro.clib.address_space.encode_access`)."""
        self.emit(f"pend({a} | {kind << KIND_SHIFT | 4 << SIZE_SHIFT})")

    def _ea(self, op: Memory) -> str:
        parts = []
        if op.base:
            parts.append(self.reg(op.base))
        if op.index:
            idx = self.reg(op.index)
            parts.append(idx if op.scale == 1 else f"{idx} * {op.scale}")
        if not parts:
            return self.const(op.displacement & MASK32)
        if op.displacement:
            parts.insert(0, self.const(op.displacement))
        return f"({' + '.join(parts)}) & {_M32}"

    def _load_lines(self, a: str) -> str:
        """Emit a guarded 4-byte load from the address atom ``a``.

        A handler loads through the machine's space. A superblock's
        fast branch reads the stack region's bytearray directly —
        sound because the guard proves the access in-bounds in a region
        whose (static) permissions allow it, and the scalar path keeps
        handling everything else: other regions, faults, and any
        attached watcher (``W`` is the live watcher list, so attaching
        one mid-run disables the shortcut for every later access).

        When the optimizer's range analysis proved this instruction's
        accesses inside the stack region (``cur_safe``), the bounds
        compare is elided — only the watcher check remains."""
        v = self.temp("v")
        if self.handler:
            self.emit(f"{v} = m.space.load_uint({a}, 4)")
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
        if self.handler:
            self.emit(f"m.space.store_uint({a}, {value}, 4)")
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
            return self.const(op.value & MASK32)
        if isinstance(op, Register):
            return self.reg(op.name)
        if isinstance(op, LabelRef):
            if op.address is None:
                raise _Unsupported("unresolved label")
            return self.const(op.address)
        if isinstance(op, Memory):
            self.flush_fetches()
            a = self.temp("a")
            self.emit(f"{a} = {self._ea(op)}")
            v = self._load_lines(a)
            if self.bus:
                self._pend(a, LOAD)
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
                self._pend(a, STORE)
            return
        raise _Unsupported(repr(op))

    def signed(self, raw: str) -> str:
        v = self.temp("s")
        self.emit(f"{v} = {raw} - 4294967296 if {raw} & {_SIGN} else {raw}")
        return v

    def flags_from_value(self, value: str) -> None:
        self.emit(f"{self.flag('zf')} = {value} == 0")
        self.emit(f"{self.flag('sf')} = ({value} & {_SIGN}) != 0")

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
        if risky and not self.handler:
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

    def _return(self, target: str, executed: int) -> str:
        """A superblock returns ``(next_eip, executed)``, a handler
        just the next %eip."""
        if self.handler:
            return f"return {target}"
        return f"return ({target}, {executed})"

    def exit_const(self, target: int) -> None:
        """Leave the block for a known address (nothing executed here)."""
        self.exit_dynamic(self.const(target))

    def exit_dynamic(self, expr: str) -> None:
        self.flush_fetches()
        self.emit(self._return(expr, len(self.addresses)))
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
        if m in ADDSUB:
            src = self.read32(ops[0])
            dst = self.read32(ops[1])
            v = self.temp("v")
            if m == "addl":
                w = self.temp("w")
                self.emit(f"{w} = {dst} + {src}")
                self.emit(f"{v} = {w} & {_M32}")
                self.emit(f"{self.flag('cf')} = {w} > {_M32}")
                self.emit(f"{self.flag('of')} = (~({dst} ^ {src})"
                          f" & ({dst} ^ {v}) & {_SIGN}) != 0")
            else:
                self.emit(f"{v} = ({dst} - {src}) & {_M32}")
                self.emit(f"{self.flag('cf')} = {dst} < {src}")
                self.emit(f"{self.flag('of')} = (({dst} ^ {src})"
                          f" & ({dst} ^ {v}) & {_SIGN}) != 0")
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
            self.emit(f"{self.flag('cf')} = {self.flag('of')}"
                      f" = not -{_SIGN} <= {e} <= 2147483647")
            self.flags_from_value(v)
            self.write32(ops[1], v)
            return
        if m in LOGIC:
            src = self.read32(ops[0])
            dst = self.read32(ops[1])
            bitop = {"andl": "&", "orl": "|", "xorl": "^", "testl": "&"}[m]
            v = self.temp("v")
            self.emit(f"{v} = {dst} {bitop} {src}")
            self.emit(f"{self.flag('cf')} = False")
            self.emit(f"{self.flag('of')} = False")
            self.flags_from_value(v)
            if m != "testl":
                self.write32(ops[1], v)
            return
        if m in SHIFTS:
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
            self.emit(f"{self.flag('cf')} = {raw} != 0")
            self.emit(f"{self.flag('of')} = ({raw} & {v} & {_SIGN}) != 0")
            self.flags_from_value(v)
            self.write32(ops[0], v)
            return
        if m in ("incl", "decl"):
            dst = self.read32(ops[0])
            v = self.temp("v")
            if m == "incl":
                self.emit(f"{v} = ({dst} + 1) & {_M32}")
                self.emit(f"{self.flag('of')} = (~({dst} ^ 1)"
                          f" & ({dst} ^ {v}) & {_SIGN}) != 0")
            else:
                self.emit(f"{v} = ({dst} - 1) & {_M32}")
                self.emit(f"{self.flag('of')} = (({dst} ^ 1)"
                          f" & ({dst} ^ {v}) & {_SIGN}) != 0")
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
        # an immediate count shapes the code, so it stays a literal
        imm = isinstance(ops[0], Immediate)
        count = None if imm else self.read32(ops[0])
        raw = self.read32(ops[1])
        cf = self.flag("cf")
        if imm:
            c = (ops[0].value & MASK32) & 0x1F
            if not c:
                return                 # count 0: flags and dst untouched
            v = self.temp("v")
            if left:
                self.emit(f"{cf} = (({raw} >> {32 - c}) & 1) != 0")
                self.emit(f"{v} = ({raw} << {c}) & {_M32}")
            elif arith:
                s = self.signed(raw)
                self.emit(f"{cf} = (({raw} >> {c - 1}) & 1) != 0")
                self.emit(f"{v} = ({s} >> {c}) & {_M32}")
            else:
                self.emit(f"{cf} = (({raw} >> {c - 1}) & 1) != 0")
                self.emit(f"{v} = {raw} >> {c}")
            self.emit(f"{self.flag('of')} = False")
            self.flags_from_value(v)
            self.write32(ops[1], v)
            return
        c = self.temp("c")
        v = self.temp("v")
        self.emit(f"{c} = {count} & 31")
        self.emit(f"if {c}:")
        inner = len(self.body)
        if left:
            self.emit(f"{cf} = (({raw} >> (32 - {c})) & 1) != 0")
            self.emit(f"{v} = ({raw} << {c}) & {_M32}")
        elif arith:
            self.emit(f"{v} = ({raw} - 4294967296 if {raw} & {_SIGN}"
                      f" else {raw}) >> {c} & {_M32}")
            self.emit(f"{cf} = (({raw} >> ({c} - 1)) & 1) != 0")
        else:
            self.emit(f"{cf} = (({raw} >> ({c} - 1)) & 1) != 0")
            self.emit(f"{v} = {raw} >> {c}")
        self.emit(f"{self.flag('of')} = False")
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
            self._pend(esp, STORE)

    def _pop(self) -> str:
        self.flush_fetches()
        esp = self.reg("esp")
        v = self._load_lines(esp)
        if self.bus:
            self._pend(esp, LOAD)
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
            target = self.const(op.address)
        elif isinstance(op, Register) and op.name in GP32:
            target = self.reg(op.name)
        else:
            raise _Unsupported("jcc operand")
        i = self.begin(ins, risky=False)
        self.flush_fetches()           # a taken branch must not leave
        self.emit(f"if {self.cond(ins.mnemonic)}:")   # its fetch pending
        self.emit("    " + self._return(target, i + 1))

    def call(self, ins) -> int | None:
        """call: push the return address; returns the static target to
        keep compiling into, or None after emitting a dynamic exit."""
        op = ins.operands[0]
        if isinstance(op, LabelRef) and op.address is not None:
            self.begin(ins, risky=True)
            self._push(self.next_address(ins))
            return op.address
        if isinstance(op, Register) and op.name in GP32:
            self.begin(ins, risky=True)
            self._push(self.next_address(ins))
            self.exit_dynamic(self.reg(op.name))   # read after the push
            return None
        raise _Unsupported("call operand")

    def ret(self, ins) -> None:
        self.begin(ins, risky=True)
        self.exit_dynamic(self._pop())

    def halt(self, ins) -> None:
        self.begin(ins, risky=False)
        self.emit("m.halted = True")
        self.exit_dynamic(self.next_address(ins))

    def instruction(self, ins) -> None:
        """Handler mode: the whole of one instruction, ending in the
        return of the next %eip."""
        m = ins.mnemonic
        if m == "jmp":
            op = ins.operands[0]
            if isinstance(op, LabelRef) and op.address is not None:
                self.jump(ins)
                self.exit_const(op.address)
            else:
                self.jump_indirect(ins)
        elif m in COND_SRC:
            self.side_exit(ins)
        elif m == "call":
            target = self.call(ins)
            if target is not None:
                self.exit_const(target)
        elif m == "ret":
            self.ret(ins)
        elif m == "halt":
            self.halt(ins)
        else:
            self.plain(ins)
        if not self.closed:
            self.exit_dynamic("nxt")

    # -- assembly of the module source -----------------------------------

    def render(self) -> str:
        """The superblock module, compiled once per block shape.

        The ``_make`` factory takes everything machine-specific as
        arguments and closes over the machine's register dict, flag
        object and backing space and the engine's pending list;
        ``block(m, eng)`` is the compiled body. The program's operand
        values arrive as ``K`` too (see :attr:`consts`), so blocks that
        differ only in constants or addresses render the same text.
        Every value written to a register local is already masked to
        32 bits, so writeback is a plain store. The block returns
        ``(next_eip, executed)``; the dispatcher replicates run()'s
        sentinel/masking/step logic."""
        head = ["def _make(m, eng, A, FT, FA, FS, AS, MachineFault, K):",
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
        head += ["    W = eng.backing._watchers",
                 "    SB = eng.stack_region.start",
                 "    SL = eng.stack_region.size - 4",
                 "    SD = eng.stack_region.data",
                 "    ifb = int.from_bytes"]
        if self.consts:
            names = ", ".join(f"K{i}" for i in range(len(self.consts)))
            head.append(f"    {names}, = K")
        # the machine and the engine are arguments, not closure cells,
        # so a bound block keeps neither alive (no reference cycle)
        head.append("    def block(m, eng):")
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

    def render_handler(self) -> str:
        """The handler module: one function ``h(m, nxt)``."""
        lines = ["def h(m, nxt):"]
        if self.used:
            lines.append("    _r = m.regs._regs")
        if self.flags_used:
            lines.append("    f = m.regs.flags")
        lines += ["    " + b for b in self.body]
        return "\n".join(lines) + "\n"


def _interpreted(ins: Instruction):
    """The handler for an instruction the writer declines: the
    ``step()`` interpreter's own body."""
    def interpret(m, nxt: int) -> int:
        return m._execute(ins, nxt)
    return interpret


@functools.lru_cache(maxsize=4096)
def handler(mnemonic: str, operands: tuple):
    """The interpreter's handler for one instruction form.

    Built once per process for each distinct ``(mnemonic, operands)``
    (operands are frozen dataclasses, so a resolved label's address is
    part of the key) and shared by every program using that form.
    """
    ins = Instruction(mnemonic, operands)
    writer = _Writer(handler=True)
    try:
        writer.instruction(ins)
    except _Unsupported:
        return _interpreted(ins)
    code = compile(writer.render_handler(), "<isa handler>", "exec")
    namespace = {"MachineFault": MachineFault}
    exec(code, namespace)  # noqa: S102
    # popped, so the handler's globals do not hold the handler
    return namespace.pop("h")
