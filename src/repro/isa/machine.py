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
from repro.isa.registers import GP32, RegisterSet

#: "return address" of the outermost frame; reaching it ends the program
SENTINEL_RETURN = 0xFFFF_FFF0


#: flag predicates for the conditional jumps, shared by the step-by-step
#: interpreter and the predecoded handler compiler
_JUMP_CONDITIONS = {
    "je": lambda f: f.zf,
    "jne": lambda f: not f.zf,
    "jg": lambda f: not f.zf and f.sf == f.of,
    "jge": lambda f: f.sf == f.of,
    "jl": lambda f: f.sf != f.of,
    "jle": lambda f: f.zf or f.sf != f.of,
    "ja": lambda f: not f.cf and not f.zf,
    "jae": lambda f: not f.cf,
    "jb": lambda f: f.cf,
    "jbe": lambda f: f.cf or f.zf,
    "js": lambda f: f.sf,
    "jns": lambda f: not f.sf,
}


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

    def _condition(self, mnemonic: str) -> bool:
        return _JUMP_CONDITIONS[mnemonic](self.regs.flags)

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
        next_eip = eip + INSTRUCTION_SIZE
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
        elif m in ("je", "jne", "jg", "jge", "jl", "jle",
                   "ja", "jae", "jb", "jbe", "js", "jns"):
            if self._condition(m):
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

        if next_eip == SENTINEL_RETURN:
            self.halted = True
        if self.recorder.enabled:
            self.recorder.complete(m, ts=self.steps, dur=1, pid="isa",
                                   tid="cpu", cat="isa",
                                   args={"eip": eip})
        self.regs.eip = next_eip & MASK32
        self.steps += 1
        return ins

    def _predecode(self) -> dict[int, Callable]:
        """The program's decode-once handler table, built lazily.

        Cached on the :class:`Program` itself, so every machine (and
        every :meth:`call`) executing the same program shares one
        compilation. Operand decoding — the ``isinstance`` dispatch and
        addressing-mode analysis the interpreter repeats on every step
        — happens here exactly once per instruction.
        """
        handlers = self.program.predecoded
        if handlers is None:
            handlers = {addr: _compile_instruction(ins)
                        for addr, ins in self.program.by_address.items()}
            self.program.predecoded = handlers
        return handlers

    def _jit(self):
        """This machine's JIT engine, or None when JIT can't apply here
        (unsupported space type). An enabled recorder no longer falls
        back to the interpreter: the engine records one complete-span
        per superblock execution instead of per-instruction spans."""
        if self._jit_engine is None:
            from repro.isa import jit as _jitmod
            if _jitmod.supports(self.space):
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
        :meth:`step`'s interpreting ``if/elif`` chain; the
        ``record_fetches`` branch is resolved once outside the loop.
        :meth:`step` remains the step-by-step oracle — the differential
        tests pin both paths to identical final state, faults, and
        fetch traces.

        With ``jit=True`` (or a machine built with ``jit=True``) hot
        code additionally compiles to superblocks (see
        :mod:`repro.isa.jit`) — same observable behaviour, pinned by
        the same oracle tests.
        """
        use_jit = self.jit if jit is None else jit
        if use_jit:
            engine = self._jit()
            if engine is not None:
                return engine.run(max_steps)
        if self.recorder.enabled:
            return self._run_traced(self._predecode(), max_steps)
        self._run_predecoded(max_steps)
        return self.regs.get_signed("eax")

    def _run_predecoded(self, max_steps: int, *,
                        raise_on_limit: bool = True) -> None:
        """The untraced handler-table loop behind :meth:`run` and
        :meth:`run_slice`: at ``max_steps`` it raises, or with
        ``raise_on_limit=False`` just stops."""
        handlers = self._predecode()
        regs = self.regs
        record = self.record_fetches
        fetch = self.space.fetch
        steps = self.steps
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
                    raise MachineFault(_fell_off(eip, steps))
                if record:
                    fetch(eip, INSTRUCTION_SIZE)
                next_eip = handler(self, eip + INSTRUCTION_SIZE)
                if next_eip == SENTINEL_RETURN:
                    self.halted = True
                regs.eip = next_eip & MASK32
                steps += 1
        finally:
            self.steps = steps

    #: pending per-instruction events per bulk flush in the traced loop
    TRACE_CHUNK = 4096

    def _run_traced(self, handlers, max_steps: int) -> int:
        """The :meth:`run` loop with per-instruction span recording.

        Identical state transitions to the untraced loop (the oracle
        tests pin both). The per-step cost is two list appends: spans
        (and fetch instants, when ``record_fetches``) accumulate in
        plain lists and land in the recorder's structured-array ring in
        :attr:`TRACE_CHUNK`-sized bulk appends — one numpy slice
        assignment per column instead of one event object per step.
        Flushes happen before any fault instant and on exit, so event
        order in the buffer still follows execution order.
        """
        regs = self.regs
        record = self.record_fetches
        fetch = self.space.fetch
        rec = self.recorder
        ids = {addr: rec.intern(ins.mnemonic)
               for addr, ins in self.program.by_address.items()}
        track = rec.intern_track("isa", "cpu")
        cat = rec.intern("isa")
        eip_key = rec.intern("eip")
        fetch_id = rec.intern("fetch") if record else -1
        chunk = self.TRACE_CHUNK
        pending: list[int] = []                      # eips, in step order
        append = pending.append
        steps = self.steps
        base = steps                                 # ts of pending[0]
        flush_at = base + chunk

        def flush() -> None:
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
            base = steps
            flush_at = base + chunk

        try:
            while not self.halted:
                if steps >= max_steps:
                    raise MachineFault(
                        "step limit exceeded (infinite loop?)")
                eip = regs.eip
                handler = handlers.get(eip)
                if handler is None:
                    flush()
                    rec.instant("fault", ts=steps, pid="isa", tid="cpu",
                                cat="isa",
                                args={"eip": eip,
                                      "what": _fell_off(eip, steps)})
                    raise MachineFault(_fell_off(eip, steps))
                if record:
                    fetch(eip, INSTRUCTION_SIZE)
                try:
                    next_eip = handler(self, eip + INSTRUCTION_SIZE)
                except MachineFault as exc:
                    flush()
                    rec.instant("fault", ts=steps, pid="isa", tid="cpu",
                                cat="isa",
                                args={"eip": eip, "what": str(exc)})
                    raise
                steps += 1
                append(eip)
                if steps >= flush_at:
                    flush()
                if next_eip == SENTINEL_RETURN:
                    self.halted = True
                regs.eip = next_eip & MASK32
        finally:
            self.steps = steps
            flush()
        return regs.get_signed("eax")

    def run_slice(self, limit: int, *, jit: bool | None = None) -> int:
        """Execute up to ``limit`` instructions; returns how many ran.

        The kernel's timeslice primitive: stops early on halt, raises
        on faults like :meth:`step`, and never raises for hitting the
        limit. Interpreted slices run :meth:`run`'s predecoded handler
        loop (with tracing on, :meth:`step` records each instruction);
        with JIT enabled, whole superblocks execute per dispatch.
        """
        before = self.steps
        use_jit = self.jit if jit is None else jit
        if use_jit:
            engine = self._jit()
            if engine is not None:
                engine.run(before + limit, raise_on_limit=False)
                return self.steps - before
        if self.recorder.enabled:
            while not self.halted and self.steps - before < limit:
                self.step()
        else:
            self._run_predecoded(before + limit, raise_on_limit=False)
        return self.steps - before

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


# -- the predecoded fast path ------------------------------------------------
#
# One compiled closure per instruction, built once per Program and cached
# on it (Program.predecoded). Each closure takes (machine, fall_through)
# and returns the next %eip. Operand readers/writers are specialized per
# operand *kind* at compile time, so the hot loop never repeats the
# isinstance dispatch, addressing-mode analysis, or mnemonic chain the
# step-by-step interpreter performs. Operand evaluation order — visible
# through the address-space access trace — matches step() exactly.

def _compile_ea(op: Memory) -> Callable[[Machine], int]:
    disp, base, index, scale = op.displacement, op.base, op.index, op.scale
    if base and index:
        return lambda m: ((disp + m.regs.get(base)
                           + m.regs.get(index) * scale) & MASK32)
    if base:
        if disp:
            return lambda m: (disp + m.regs.get(base)) & MASK32
        return lambda m: m.regs.get(base)
    if index:
        return lambda m: (disp + m.regs.get(index) * scale) & MASK32
    absolute = disp & MASK32
    return lambda m: absolute


def _compile_read(op: Operand) -> Callable[[Machine], int]:
    if isinstance(op, Immediate):
        value = op.value & MASK32
        return lambda m: value
    if isinstance(op, Register):
        name = op.name
        if name in GP32:        # skip the width-dispatch chain in get()
            return lambda m: m.regs._regs[name]
        return lambda m: m.regs.get(name)
    if isinstance(op, Memory):
        ea = _compile_ea(op)
        return lambda m: m.space.load_uint(ea(m), 4)
    if isinstance(op, LabelRef):
        if op.address is None:
            name = op.name

            def unresolved(m: Machine) -> int:
                raise MachineFault(f"unresolved label {name!r}")
            return unresolved
        address = op.address
        return lambda m: address
    return lambda m: m.read_operand(op)     # raises the scalar error


def _compile_write(op: Operand) -> Callable[[Machine, int], None]:
    if isinstance(op, Register):
        name = op.name
        if name in GP32:
            def wr32(m: Machine, v: int, _name: str = name) -> None:
                m.regs._regs[_name] = v & MASK32
            return wr32
        return lambda m, v: m.regs.set(name, v)
    if isinstance(op, Memory):
        ea = _compile_ea(op)
        return lambda m, v: m.space.store_uint(ea(m), v, 4)
    return lambda m, v: m.write_operand(op, v)   # raises the scalar error


def _compile_read_byte(op: Operand) -> Callable[[Machine], int]:
    from repro.isa.registers import register_width
    if isinstance(op, Immediate):
        value = op.value & 0xFF
        return lambda m: value
    if isinstance(op, Register):
        name = op.name
        if register_width(name) != 8:
            def bad_width(m: Machine) -> int:
                raise IllegalInstruction(
                    f"byte operation needs an 8-bit register, got %{name}")
            return bad_width
        return lambda m: m.regs.get(name)
    if isinstance(op, Memory):
        ea = _compile_ea(op)
        return lambda m: m.space.load_uint(ea(m), 1)
    return lambda m: m.read_byte_operand(op)


def _compile_write_byte(op: Operand) -> Callable[[Machine, int], None]:
    from repro.isa.registers import register_width
    if isinstance(op, Register):
        name = op.name
        if register_width(name) != 8:
            def bad_width(m: Machine, v: int) -> None:
                raise IllegalInstruction(
                    f"byte operation needs an 8-bit register, got %{name}")
            return bad_width
        return lambda m, v: m.regs.set(name, v & 0xFF)
    if isinstance(op, Memory):
        ea = _compile_ea(op)
        return lambda m, v: m.space.store_uint(ea(m), v & 0xFF, 1)
    return lambda m, v: m.write_byte_operand(op, v)


def _raiser(exc: Exception) -> Callable[[Machine, int], int]:
    """A handler that faults when (and only when) it executes."""
    def handler(m: Machine, nxt: int) -> int:
        raise exc
    return handler


def _compile_instruction(ins: Instruction) -> Callable[[Machine, int], int]:
    """Compile one decoded instruction to a (machine, nxt) -> eip closure."""
    m_ = ins.mnemonic
    ops = ins.operands

    if m_ == "movl":
        rd, wr = _compile_read(ops[0]), _compile_write(ops[1])

        def movl(m: Machine, nxt: int) -> int:
            wr(m, rd(m))
            return nxt
        return movl

    if m_ == "movb":
        rdb, wrb = _compile_read_byte(ops[0]), _compile_write_byte(ops[1])

        def movb(m: Machine, nxt: int) -> int:
            wrb(m, rdb(m))
            return nxt
        return movb

    if m_ in ("movzbl", "movsbl"):
        if not isinstance(ops[1], Register):
            return _raiser(IllegalInstruction(
                f"{m_} destination must be a 32-bit register"))
        rdb = _compile_read_byte(ops[0])
        dest = ops[1].name
        if m_ == "movzbl":
            def movzbl(m: Machine, nxt: int) -> int:
                m.regs.set(dest, rdb(m))
                return nxt
            return movzbl

        def movsbl(m: Machine, nxt: int) -> int:
            byte = rdb(m)
            m.regs.set(dest, byte - 0x100 if byte & 0x80 else byte)
            return nxt
        return movsbl

    if m_ == "cmpb":
        rd0, rd1 = _compile_read_byte(ops[0]), _compile_read_byte(ops[1])

        def cmpb(m: Machine, nxt: int) -> int:
            src = rd0(m)
            dst = rd1(m)
            value = (dst - src) & 0xFF
            f = m.regs.flags
            f.cf = dst < src
            f.of = bool((dst ^ src) & (dst ^ value) & 0x80)
            f.zf = value == 0
            f.sf = bool(value & 0x80)
            return nxt
        return cmpb

    if m_ == "leal":
        if not isinstance(ops[0], Memory):
            return _raiser(IllegalInstruction(
                "leal source must be a memory operand"))
        ea, wr = _compile_ea(ops[0]), _compile_write(ops[1])

        def leal(m: Machine, nxt: int) -> int:
            wr(m, ea(m))
            return nxt
        return leal

    if m_ in ("addl", "subl", "cmpl"):
        rd0, rd1 = _compile_read(ops[0]), _compile_read(ops[1])
        wr = None if m_ == "cmpl" else _compile_write(ops[1])
        # flags computed inline with int arithmetic — same definitions as
        # repro.binary.arith.add/sub, minus the BitVector object traffic
        if m_ == "addl":
            def addl(m: Machine, nxt: int) -> int:
                src = rd0(m)
                dst = rd1(m)
                wide = dst + src
                value = wide & MASK32
                f = m.regs.flags
                f.cf = wide > MASK32
                f.of = bool(~(dst ^ src) & (dst ^ value) & 0x8000_0000)
                f.zf = value == 0
                f.sf = bool(value & 0x8000_0000)
                wr(m, value)
                return nxt
            return addl

        def subl(m: Machine, nxt: int) -> int:
            src = rd0(m)
            dst = rd1(m)
            value = (dst - src) & MASK32
            f = m.regs.flags
            f.cf = dst < src
            f.of = bool((dst ^ src) & (dst ^ value) & 0x8000_0000)
            f.zf = value == 0
            f.sf = bool(value & 0x8000_0000)
            if wr is not None:
                wr(m, value)
            return nxt
        return subl

    if m_ == "imull":
        rd0, rd1 = _compile_read(ops[0]), _compile_read(ops[1])
        wr = _compile_write(ops[1])

        def imull(m: Machine, nxt: int) -> int:
            src = sign32(rd0(m))
            dst = sign32(rd1(m))
            exact = dst * src
            value = exact & MASK32
            lost = not -0x8000_0000 <= exact <= 0x7FFF_FFFF
            f = m.regs.flags
            f.cf = lost
            f.of = lost
            f.zf = value == 0
            f.sf = bool(value & 0x8000_0000)
            wr(m, value)
            return nxt
        return imull

    if m_ in ("andl", "orl", "xorl", "testl"):
        rd0, rd1 = _compile_read(ops[0]), _compile_read(ops[1])
        bitop = {"andl": lambda d, s: d & s, "orl": lambda d, s: d | s,
                 "xorl": lambda d, s: d ^ s,
                 "testl": lambda d, s: d & s}[m_]
        wr = None if m_ == "testl" else _compile_write(ops[1])

        def logic(m: Machine, nxt: int) -> int:
            value = bitop(rd1(m), rd0(m))
            f = m.regs.flags
            f.cf = False
            f.of = False
            f.zf = value == 0
            f.sf = bool(value & 0x8000_0000)
            if wr is not None:
                wr(m, value)
            return nxt
        return logic

    if m_ in ("sall", "shll", "sarl", "shrl"):
        rd0, rd1 = _compile_read(ops[0]), _compile_read(ops[1])
        wr = _compile_write(ops[1])
        left = m_ in ("sall", "shll")
        arithmetic = m_ == "sarl"

        def shift(m: Machine, nxt: int) -> int:
            count = rd0(m) & 0x1F
            raw = rd1(m)
            if count:
                if left:
                    cf = bool((raw >> (32 - count)) & 1)
                    value = (raw << count) & MASK32
                elif arithmetic:
                    cf = bool((raw >> (count - 1)) & 1)
                    value = (sign32(raw) >> count) & MASK32
                else:
                    cf = bool((raw >> (count - 1)) & 1)
                    value = raw >> count
                f = m.regs.flags
                f.cf = cf
                f.of = False
                f.zf = (value & MASK32) == 0
                f.sf = bool(value & 0x8000_0000)
                wr(m, value)
            return nxt
        return shift

    if m_ == "notl":
        rd, wr = _compile_read(ops[0]), _compile_write(ops[0])

        def notl(m: Machine, nxt: int) -> int:
            wr(m, ~rd(m) & MASK32)
            return nxt
        return notl

    if m_ == "negl":
        rd, wr = _compile_read(ops[0]), _compile_write(ops[0])

        def negl(m: Machine, nxt: int) -> int:
            raw = rd(m)
            value = (0 - raw) & MASK32
            f = m.regs.flags
            f.cf = raw != 0
            f.of = bool(raw & value & 0x8000_0000)
            f.zf = value == 0
            f.sf = bool(value & 0x8000_0000)
            wr(m, value)
            return nxt
        return negl

    if m_ in ("incl", "decl"):
        rd, wr = _compile_read(ops[0]), _compile_write(ops[0])
        if m_ == "incl":
            def incl(m: Machine, nxt: int) -> int:
                dst = rd(m)
                value = (dst + 1) & MASK32
                f = m.regs.flags       # inc/dec preserve CF on x86
                f.of = bool(~(dst ^ 1) & (dst ^ value) & 0x8000_0000)
                f.zf = value == 0
                f.sf = bool(value & 0x8000_0000)
                wr(m, value)
                return nxt
            return incl

        def decl(m: Machine, nxt: int) -> int:
            dst = rd(m)
            value = (dst - 1) & MASK32
            f = m.regs.flags           # inc/dec preserve CF on x86
            f.of = bool((dst ^ 1) & (dst ^ value) & 0x8000_0000)
            f.zf = value == 0
            f.sf = bool(value & 0x8000_0000)
            wr(m, value)
            return nxt
        return decl

    if m_ == "idivl":
        rd = _compile_read(ops[0])

        def idivl(m: Machine, nxt: int) -> int:
            divisor = sign32(rd(m))
            if divisor == 0:
                raise MachineFault("divide error: division by zero")
            dividend = (m.regs.get("edx") << 32) | m.regs.get("eax")
            if dividend & (1 << 63):
                dividend -= 1 << 64
            quotient = abs(dividend) // abs(divisor)
            if (dividend < 0) != (divisor < 0):
                quotient = -quotient
            remainder = dividend - quotient * divisor
            if not -(1 << 31) <= quotient < (1 << 31):
                raise MachineFault("divide error: quotient overflow")
            m.regs.set("eax", quotient & MASK32)
            m.regs.set("edx", remainder & MASK32)
            return nxt
        return idivl

    if m_ == "cltd":
        def cltd(m: Machine, nxt: int) -> int:
            m.regs.set("edx",
                       MASK32 if m.regs.get("eax") & 0x8000_0000 else 0)
            return nxt
        return cltd

    if m_ == "pushl":
        rd = _compile_read(ops[0])

        def pushl(m: Machine, nxt: int) -> int:
            m.push(rd(m))
            return nxt
        return pushl

    if m_ == "popl":
        wr = _compile_write(ops[0])

        def popl(m: Machine, nxt: int) -> int:
            wr(m, m.pop())
            return nxt
        return popl

    if m_ == "jmp":
        rd = _compile_read(ops[0])

        def jmp(m: Machine, nxt: int) -> int:
            return rd(m)
        return jmp

    if m_ in _JUMP_CONDITIONS:
        cond = _JUMP_CONDITIONS[m_]
        rd = _compile_read(ops[0])

        def jcc(m: Machine, nxt: int) -> int:
            return rd(m) if cond(m.regs.flags) else nxt
        return jcc

    if m_ == "call":
        rd = _compile_read(ops[0])

        def call(m: Machine, nxt: int) -> int:
            m.push(nxt)
            return rd(m)
        return call

    if m_ == "ret":
        def ret(m: Machine, nxt: int) -> int:
            return m.pop()
        return ret

    if m_ == "leave":
        def leave(m: Machine, nxt: int) -> int:
            m.regs.set("esp", m.regs.get("ebp"))
            m.regs.set("ebp", m.pop())
            return nxt
        return leave

    if m_ == "nop":
        def nop(m: Machine, nxt: int) -> int:
            return nxt
        return nop

    if m_ == "halt":
        def halt(m: Machine, nxt: int) -> int:
            m.halted = True
            return nxt
        return halt

    # pragma: no cover - the assembler rejects unknown mnemonics
    return _raiser(IllegalInstruction(f"unimplemented mnemonic {m_!r}"))
