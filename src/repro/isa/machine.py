"""The IA-32-subset machine: executes assembled programs.

Models what the course's GDB tracing exercises observe: registers,
condition flags, the runtime stack (push/pop/call/ret/leave and the
%ebp frame chain), memory operands with full x86 addressing modes, and
cdecl function calls. Arithmetic flag semantics come from
:mod:`repro.binary.arith` — the same definitions the binary module
teaches, now driving conditional jumps.
"""

from __future__ import annotations

from typing import Callable

from repro.binary.arith import add as _badd, mul as _bmul, sub as _bsub
from repro.binary.bits import BitVector
from repro.binary.twos_complement import MASK32, sign32
from repro.clib.address_space import AddressSpace, STACK_TOP
from repro.errors import IllegalInstruction, MachineFault
from repro.isa.codegen import handler as _handler
from repro.isa.instructions import (
    Immediate,
    Instruction,
    INSTRUCTION_SIZE,
    LabelRef,
    Memory,
    Operand,
    Program,
    Register,
)
from repro.isa.registers import RegisterSet
from repro.isa.semantics import JCC_READS, TAKEN

#: "return address" of the outermost frame; reaching it ends the program
SENTINEL_RETURN = 0xFFFF_FFF0
#: pending trace events per bulk append in the traced run loops (this
#: machine's and the JIT's)
TRACE_CHUNK = 4096


def _fell_off(eip: int, steps: int) -> str:
    """Both execution paths report the faulting %eip the same way."""
    return (f"no instruction at eip={eip:#010x} after {steps} steps "
            "(fell off the program?)")


class Machine:
    """Executes a :class:`Program` over an :class:`AddressSpace` or bus.

    ``space`` may be anything byte-addressable — a plain address space
    (the default, unchanged behaviour) or any
    :class:`repro.system.bus.MemoryBus` view. Alternatively pass
    ``bus=`` (with ``pid=`` for a per-process
    :class:`~repro.system.bus.VirtualBus`) and the machine binds its
    view itself; every load, store, and instruction fetch then travels
    the bus seam and is accounted there.
    """

    def __init__(self, program: Program, space: AddressSpace | None = None,
                 *, bus=None, pid: int | None = None,
                 record_fetches: bool = False, recorder=None,
                 jit: bool = False, jit_threshold: int = 8) -> None:
        from repro.obs.recorder import coalesce
        if bus is not None:
            if space is not None:
                raise MachineFault("pass either space= or bus=, not both")
            space = bus.view(pid)
        self.program = program
        self.bus = bus
        self.space = space or AddressSpace.standard()
        self.regs = RegisterSet()
        self.record_fetches = record_fetches
        self.jit = jit
        self.jit_threshold = jit_threshold
        self._jit_engine = None       # built lazily; False = unsupported
        #: the traced loop's interned ids, built once per recorder and
        #: handler table: (recorder, handlers, ids by address, track,
        #: cat, eip key, fetch id or -1)
        self._trace_ids = None
        #: shared trace recorder (see repro.obs); NULL_RECORDER when off
        self.recorder = coalesce(recorder)
        self.regs.set("esp", STACK_TOP - 16)
        self.regs.eip = program.entry_address
        self.halted = False
        self.steps = 0
        if program.data_image:
            self.space.write(program.data_base, program.data_image)
        # a `ret` from the entry function returns here and ends the program
        self.push(SENTINEL_RETURN)

    # -- operand access --------------------------------------------------------

    def effective_address(self, op: Memory) -> int:
        """disp + base + index*scale — the x86 addressing-mode formula."""
        addr = op.displacement
        if op.base:
            addr += self.regs.get(op.base)
        if op.index:
            addr += self.regs.get(op.index) * op.scale
        return addr & MASK32

    def read_operand(self, op: Operand) -> int:
        """Evaluate a 32-bit source operand to its unsigned value."""
        if isinstance(op, Immediate):
            return op.value & MASK32
        if isinstance(op, Register):
            return self.regs.get(op.name)
        if isinstance(op, Memory):
            return self.space.load_uint(self.effective_address(op), 4)
        if isinstance(op, LabelRef):
            if op.address is None:
                raise MachineFault(f"unresolved label {op.name!r}")
            return op.address
        raise IllegalInstruction(f"cannot read operand {op!r}")

    def write_operand(self, op: Operand, value: int) -> None:
        """Store a 32-bit value into a register or memory destination."""
        if isinstance(op, Register):
            self.regs.set(op.name, value)
        elif isinstance(op, Memory):
            self.space.store_uint(self.effective_address(op), value, 4)
        else:
            raise IllegalInstruction(f"cannot write operand {op!r}")

    # -- byte-width operands (movb / movzbl / movsbl / cmpb) ----------------

    def read_byte_operand(self, op: Operand) -> int:
        """Evaluate an 8-bit operand (byte register, memory, immediate)."""
        if isinstance(op, Immediate):
            return op.value & 0xFF
        if isinstance(op, Register):
            from repro.isa.registers import register_width
            if register_width(op.name) != 8:
                raise IllegalInstruction(
                    f"byte operation needs an 8-bit register, got %{op.name}")
            return self.regs.get(op.name)
        if isinstance(op, Memory):
            return self.space.load_uint(self.effective_address(op), 1)
        raise IllegalInstruction(f"cannot read byte operand {op!r}")

    def write_byte_operand(self, op: Operand, value: int) -> None:
        """Store one byte into a byte register or memory destination."""
        if isinstance(op, Register):
            from repro.isa.registers import register_width
            if register_width(op.name) != 8:
                raise IllegalInstruction(
                    f"byte operation needs an 8-bit register, got %{op.name}")
            self.regs.set(op.name, value & 0xFF)
        elif isinstance(op, Memory):
            self.space.store_uint(self.effective_address(op),
                                  value & 0xFF, 1)
        else:
            raise IllegalInstruction(f"cannot write byte operand {op!r}")

    # -- stack -------------------------------------------------------------------

    def push(self, value: int) -> None:
        """pushl: decrement %esp by 4 and store the value there."""
        esp = (self.regs.get("esp") - 4) & MASK32
        self.regs.set("esp", esp)
        self.space.store_uint(esp, value, 4)

    def pop(self) -> int:
        """popl: load from %esp and increment it by 4."""
        esp = self.regs.get("esp")
        value = self.space.load_uint(esp, 4)
        self.regs.set("esp", (esp + 4) & MASK32)
        return value

    # -- flags ---------------------------------------------------------------------

    def _set_flags_arith(self, result) -> None:
        f = self.regs.flags
        f.cf = result.flags.carry
        f.of = result.flags.overflow
        f.zf = result.flags.zero
        f.sf = result.flags.sign

    def _set_flags_logic(self, value: int) -> None:
        f = self.regs.flags
        f.cf = False
        f.of = False
        f.zf = (value & MASK32) == 0
        f.sf = bool(value & 0x8000_0000)

    # -- execution --------------------------------------------------------------------

    def step(self) -> Instruction:
        """Fetch, execute, and return the instruction at %eip."""
        if self.halted:
            raise MachineFault("machine is halted")
        eip = self.regs.eip
        ins = self.program.at(eip)
        if ins is None:
            if self.recorder.enabled:
                self.recorder.instant(
                    "fault", ts=self.steps, pid="isa", tid="cpu",
                    cat="isa", args={"eip": eip,
                                     "what": _fell_off(eip, self.steps)})
            raise MachineFault(_fell_off(eip, self.steps))
        if self.record_fetches:
            self.space.fetch(eip, INSTRUCTION_SIZE)
            if self.recorder.enabled:
                self.recorder.instant("fetch", ts=self.steps, pid="isa",
                                      tid="cpu", cat="isa",
                                      args={"eip": eip})
        next_eip = self._execute(ins, eip + INSTRUCTION_SIZE)
        if next_eip == SENTINEL_RETURN:
            self.halted = True
        if self.recorder.enabled:
            self.recorder.complete(ins.mnemonic, ts=self.steps, dur=1,
                                   pid="isa", tid="cpu", cat="isa",
                                   args={"eip": eip})
        self.regs.eip = next_eip & MASK32
        self.steps += 1
        return ins

    def _execute(self, ins: Instruction, next_eip: int) -> int:
        """Execute one instruction; returns the next %eip.

        The interpreter proper, shared by :meth:`step` and the handlers
        the code generator declines (see :mod:`repro.isa.codegen`).
        ``next_eip`` is the fall-through address.
        """
        m = ins.mnemonic
        ops = ins.operands

        if m == "movl":
            self.write_operand(ops[1], self.read_operand(ops[0]))
        elif m == "movb":
            self.write_byte_operand(ops[1], self.read_byte_operand(ops[0]))
        elif m == "movzbl":
            if not isinstance(ops[1], Register):
                raise IllegalInstruction("movzbl destination must be a "
                                         "32-bit register")
            self.regs.set(ops[1].name, self.read_byte_operand(ops[0]))
        elif m == "movsbl":
            if not isinstance(ops[1], Register):
                raise IllegalInstruction("movsbl destination must be a "
                                         "32-bit register")
            byte = self.read_byte_operand(ops[0])
            self.regs.set(ops[1].name,
                          byte - 0x100 if byte & 0x80 else byte)
        elif m == "cmpb":
            src = BitVector(self.read_byte_operand(ops[0]), 8)
            dst = BitVector(self.read_byte_operand(ops[1]), 8)
            self._set_flags_arith(_bsub(dst, src))
        elif m == "leal":
            if not isinstance(ops[0], Memory):
                raise IllegalInstruction("leal source must be a memory operand")
            self.write_operand(ops[1], self.effective_address(ops[0]))
        elif m in ("addl", "subl", "cmpl"):
            src = BitVector(self.read_operand(ops[0]), 32)
            dst = BitVector(self.read_operand(ops[1]), 32)
            result = _badd(dst, src) if m == "addl" else _bsub(dst, src)
            self._set_flags_arith(result)
            if m != "cmpl":
                self.write_operand(ops[1], result.value.raw)
        elif m == "imull":
            src = BitVector(self.read_operand(ops[0]), 32)
            dst = BitVector(self.read_operand(ops[1]), 32)
            result = _bmul(dst, src, signed=True)
            self._set_flags_arith(result)
            self.write_operand(ops[1], result.value.raw)
        elif m in ("andl", "orl", "xorl", "testl"):
            src = self.read_operand(ops[0])
            dst = self.read_operand(ops[1])
            value = {"andl": dst & src, "orl": dst | src,
                     "xorl": dst ^ src, "testl": dst & src}[m]
            self._set_flags_logic(value)
            if m != "testl":
                self.write_operand(ops[1], value)
        elif m in ("sall", "shll", "sarl", "shrl"):
            count = self.read_operand(ops[0]) & 0x1F
            raw = self.read_operand(ops[1])
            if count:
                if m in ("sall", "shll"):
                    cf = bool((raw >> (32 - count)) & 1)
                    value = (raw << count) & MASK32
                elif m == "shrl":
                    cf = bool((raw >> (count - 1)) & 1)
                    value = raw >> count
                else:  # sarl
                    cf = bool((raw >> (count - 1)) & 1)
                    value = (sign32(raw) >> count) & MASK32
                self._set_flags_logic(value)
                self.regs.flags.cf = cf
                self.write_operand(ops[1], value)
        elif m == "notl":
            self.write_operand(ops[0], ~self.read_operand(ops[0]) & MASK32)
        elif m == "negl":
            raw = self.read_operand(ops[0])
            result = _bsub(BitVector(0, 32), BitVector(raw, 32))
            self._set_flags_arith(result)
            self.regs.flags.cf = raw != 0
            self.write_operand(ops[0], result.value.raw)
        elif m in ("incl", "decl"):
            raw = BitVector(self.read_operand(ops[0]), 32)
            one = BitVector(1, 32)
            result = _badd(raw, one) if m == "incl" else _bsub(raw, one)
            saved_cf = self.regs.flags.cf     # inc/dec preserve CF on x86
            self._set_flags_arith(result)
            self.regs.flags.cf = saved_cf
            self.write_operand(ops[0], result.value.raw)
        elif m == "idivl":
            divisor = sign32(self.read_operand(ops[0]))
            if divisor == 0:
                raise MachineFault("divide error: division by zero")
            dividend = (self.regs.get("edx") << 32) | self.regs.get("eax")
            if dividend & (1 << 63):
                dividend -= 1 << 64
            quotient = abs(dividend) // abs(divisor)
            if (dividend < 0) != (divisor < 0):
                quotient = -quotient
            remainder = dividend - quotient * divisor
            if not -(1 << 31) <= quotient < (1 << 31):
                raise MachineFault("divide error: quotient overflow")
            self.regs.set("eax", quotient & MASK32)
            self.regs.set("edx", remainder & MASK32)
        elif m == "cltd":
            self.regs.set("edx",
                          MASK32 if self.regs.get("eax") & 0x8000_0000 else 0)
        elif m == "pushl":
            self.push(self.read_operand(ops[0]))
        elif m == "popl":
            self.write_operand(ops[0], self.pop())
        elif m == "jmp":
            next_eip = self.read_operand(ops[0])
        elif m in JCC_READS:
            if TAKEN[m](vars(self.regs.flags)):
                next_eip = self.read_operand(ops[0])
        elif m == "call":
            self.push(next_eip)
            next_eip = self.read_operand(ops[0])
        elif m == "ret":
            next_eip = self.pop()
        elif m == "leave":
            self.regs.set("esp", self.regs.get("ebp"))
            self.regs.set("ebp", self.pop())
        elif m == "nop":
            pass
        elif m == "halt":
            self.halted = True
        else:  # pragma: no cover - assembler rejects unknown mnemonics
            raise IllegalInstruction(f"unimplemented mnemonic {m!r}")
        return next_eip

    def _predecode(self) -> dict[int, Callable]:
        """The program's decode-once handler table, built lazily.

        Cached on the :class:`Program` itself, so every machine (and
        every :meth:`call`) executing the same program shares one
        table. Each handler is generated code for its instruction's
        form (:func:`repro.isa.codegen.handler`), compiled once per
        process and shared by every program using that form: operand
        decoding — the ``isinstance`` dispatch and addressing-mode
        analysis the interpreter repeats on every step — happens at
        generation time.
        """
        handlers = self.program.predecoded
        if handlers is None:
            handlers = {addr: _handler(ins.mnemonic, ins.operands)
                        for addr, ins in self.program.by_address.items()}
            self.program.predecoded = handlers
        return handlers

    def _jit(self):
        """This machine's JIT engine, or None when JIT can't apply here
        (unsupported space type, or no read-write region holding
        ``%esp`` when it first runs). An enabled recorder no longer falls
        back to the interpreter: the engine records one complete-span
        per superblock execution instead of per-instruction spans."""
        if self._jit_engine is None:
            from repro.isa import jit as _jitmod
            if _jitmod.supports(self):
                self._jit_engine = _jitmod.JitEngine(
                    self, threshold=self.jit_threshold)
            else:
                self._jit_engine = False
        return self._jit_engine or None

    @property
    def jit_stats(self):
        """JitStats once the JIT has been engaged, else None."""
        engine = self._jit_engine
        return engine.stats if engine else None

    def run(self, max_steps: int = 1_000_000, *,
            jit: bool | None = None) -> int:
        """Run to completion; returns %eax as a signed int (C return value).

        Dispatches through the predecoded handler table rather than
        :meth:`step`'s interpreting ``if/elif`` chain. :meth:`step`
        and :meth:`_execute` remain the reference the differential
        tests pin this loop to: identical final state, faults, fetch
        traces and recorded events.

        With ``jit=True`` (or a machine built with ``jit=True``) hot
        code additionally compiles to superblocks (see
        :mod:`repro.isa.jit`) — same observable behaviour, pinned by
        the same oracle tests.
        """
        self._run(max_steps, jit, raise_on_limit=True)
        return self.regs.get_signed("eax")

    def run_slice(self, limit: int, *, jit: bool | None = None) -> int:
        """Execute up to ``limit`` instructions; returns how many ran.

        The kernel's timeslice primitive: :meth:`run`'s loop, which
        stops early on halt, raises on faults like :meth:`step`, and
        never raises for hitting the limit.
        """
        before = self.steps
        self._run(before + limit, jit, raise_on_limit=False)
        return self.steps - before

    def _run(self, max_steps: int, jit: bool | None, *,
             raise_on_limit: bool) -> None:
        """The one run loop behind :meth:`run` and :meth:`run_slice`:
        at ``max_steps`` it raises, or with ``raise_on_limit=False``
        just stops.

        With the JIT on (``jit``, or the machine's setting when None)
        and applicable, the engine's block dispatch runs instead.
        Otherwise each step calls the instruction's predecoded handler.
        With the recorder enabled the loop also records, at one list
        append per step: spans (and fetch instants, when
        ``record_fetches``) land in the recorder's structured-array ring
        in :data:`TRACE_CHUNK`-sized bulk appends — one numpy slice
        assignment per column instead of one event object per step.
        Flushes happen before any fault instant and on exit, so spans
        keep execution order among themselves, and so do fetch instants;
        within one chunk the fetches are listed before the spans. The
        label ids are interned once per recorder, so a kernel's many
        short slices do not re-intern the program.
        """
        if self.jit if jit is None else jit:
            engine = self._jit()
            if engine is not None:
                engine.run(self, max_steps, raise_on_limit=raise_on_limit)
                return
        handlers = self._predecode()
        regs = self.regs
        record = self.record_fetches
        fetch = self.space.fetch
        rec = self.recorder
        traced = rec.enabled
        steps = self.steps
        if traced:
            table = self._trace_ids
            if (table is None or table[0] is not rec
                    or table[1] is not handlers
                    or (record and table[6] < 0)):
                table = self._trace_ids = (
                    rec, handlers,
                    {addr: rec.intern(ins.mnemonic)
                     for addr, ins in self.program.by_address.items()},
                    rec.intern_track("isa", "cpu"), rec.intern("isa"),
                    rec.intern("eip"),
                    rec.intern("fetch") if record else -1)
            _, _, ids, track, cat, eip_key, fetch_id = table
            pending: list[int] = []                  # eips, in step order
            append = pending.append
            base = steps                             # ts of pending[0]
            flush_at = base + TRACE_CHUNK

            def flush(now: int) -> None:
                nonlocal base, flush_at
                if pending:
                    if record:
                        rec.instant_run(fetch_id, base, track_id=track,
                                        cat_id=cat, key_id=eip_key,
                                        vals=pending)
                    rec.complete_run(list(map(ids.__getitem__, pending)),
                                     base, track_id=track, cat_id=cat,
                                     key_id=eip_key, vals=pending)
                    pending.clear()
                base = now
                flush_at = base + TRACE_CHUNK

        try:
            while not self.halted:
                if steps >= max_steps:
                    if not raise_on_limit:
                        break
                    raise MachineFault(
                        "step limit exceeded (infinite loop?)")
                eip = regs.eip
                handler = handlers.get(eip)
                if handler is None:
                    if traced:
                        flush(steps)
                        rec.instant("fault", ts=steps, pid="isa", tid="cpu",
                                    cat="isa",
                                    args={"eip": eip,
                                          "what": _fell_off(eip, steps)})
                    raise MachineFault(_fell_off(eip, steps))
                if record:
                    fetch(eip, INSTRUCTION_SIZE)
                try:
                    next_eip = handler(self, eip + INSTRUCTION_SIZE)
                except BaseException as exc:
                    if traced:
                        flush(steps)
                        if record:   # fetched before it faulted, as in step()
                            rec.instant("fetch", ts=steps, pid="isa",
                                        tid="cpu", cat="isa",
                                        args={"eip": eip})
                        if isinstance(exc, MachineFault):
                            rec.instant("fault", ts=steps, pid="isa",
                                        tid="cpu", cat="isa",
                                        args={"eip": eip, "what": str(exc)})
                    raise
                if next_eip == SENTINEL_RETURN:
                    self.halted = True
                regs.eip = next_eip & MASK32
                steps += 1
                if traced:
                    append(eip)
                    if steps >= flush_at:
                        flush(steps)
        finally:
            self.steps = steps
            if traced:
                flush(steps)

    def call(self, label: str, *args: int,
             max_steps: int = 1_000_000) -> int:
        """Invoke a function cdecl-style and return its (signed) result.

        Pushes args right-to-left, pushes the sentinel return address, and
        runs until the function returns to it.
        """
        if label not in self.program.labels:
            raise MachineFault(f"no function labelled {label!r}")
        saved_esp = self.regs.get("esp")
        for a in reversed(args):
            self.push(a & MASK32)
        self.push(SENTINEL_RETURN)
        self.regs.eip = self.program.labels[label]
        self.halted = False
        result = self.run(max_steps=max_steps)
        self.regs.set("esp", saved_esp)   # caller cleans up (cdecl)
        return result
