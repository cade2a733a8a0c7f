"""Operand and instruction modelling for the IA-32 subset (AT&T syntax).

Instructions are kept in decoded form, each pinned to an address in the
text region (4 bytes apart, so addresses, the PC, and GDB-style
breakpoints behave realistically) with the machine fetching from a side
table. Binary encoding of IA-32 is deliberately out of scope — the course
treats assembly as "the human-readable form of ... machine code", and
this repo's observable unit is the instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import AssemblerError

JUMPS = {"jmp", "je", "jne", "jg", "jge", "jl", "jle",
         "ja", "jae", "jb", "jbe", "js", "jns"}
CALLS = {"call"}

#: bytes per instruction slot in the text region
INSTRUCTION_SIZE = 4


class Operand:
    """Base class for instruction operands."""


@dataclass(frozen=True)
class Register(Operand):
    """``%eax`` — a register operand (name stored without the sigil)."""
    name: str

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Immediate(Operand):
    """``$42`` — a literal value."""
    value: int

    def __str__(self) -> str:
        return f"${self.value}"


@dataclass(frozen=True)
class Memory(Operand):
    """``disp(base, index, scale)`` — an x86 effective address.

    Any of base/index may be None; scale ∈ {1, 2, 4, 8}.
    """
    displacement: int = 0
    base: str | None = None
    index: str | None = None
    scale: int = 1

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise AssemblerError(f"invalid scale {self.scale}")
        if self.base is None and self.index is None:
            # absolute addressing: displacement only
            pass

    def __str__(self) -> str:
        disp = str(self.displacement) if self.displacement else ""
        if self.base is None and self.index is None:
            return str(self.displacement)
        inner = f"%{self.base}" if self.base else ""
        if self.index:
            inner += f",%{self.index},{self.scale}"
        return f"{disp}({inner})"


@dataclass(frozen=True)
class LabelRef(Operand):
    """A code label used by jumps and calls; resolved to an address."""
    name: str
    address: int | None = None

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class LabelImmediate(Operand):
    """``$label`` — the *address* of a label as an immediate (AT&T)."""
    name: str
    address: int | None = None

    def __str__(self) -> str:
        return f"${self.name}"


# ---------------------------------------------------------------------------
# the mnemonic table
# ---------------------------------------------------------------------------

#: what an instruction does with one explicit operand
READ, WRITE, READ_WRITE = "read", "write", "read-write"
ADDRESS = "address"          # leal: the address is computed, never loaded
TARGET = "target"            # jumps and calls: a label, or a register

_ESP = frozenset({"esp"})


class Mnemonic(NamedTuple):
    """One row of :data:`MNEMONICS`."""
    #: the role of each explicit operand; their count is the arity
    roles: tuple[str, ...] = ()
    #: 32-bit registers read and written besides the operands
    reads: frozenset = frozenset()
    writes: frozenset = frozenset()
    #: the implicit stack access: "load", "store" or ""
    stack: str = ""
    #: the flags written: "all", "all-but-cf", "shift" (all four when
    #: the count is not 0 mod 32) or ""
    flags: str = ""


#: every mnemonic the machine executes: what it reads and writes.  The
#: assembler's operand check, the asm lint and the effect functions of
#: :mod:`repro.isa.semantics` all read this one table.
MNEMONICS: dict[str, Mnemonic] = {name: row for names, row in (
    ("movl movb movzbl movsbl", Mnemonic((READ, WRITE))),
    ("leal", Mnemonic((ADDRESS, WRITE))),
    ("addl subl imull andl orl xorl",
     Mnemonic((READ, READ_WRITE), flags="all")),
    ("sall shll sarl shrl", Mnemonic((READ, READ_WRITE), flags="shift")),
    ("cmpl testl cmpb", Mnemonic((READ, READ), flags="all")),
    ("notl", Mnemonic((READ_WRITE,))),
    ("negl", Mnemonic((READ_WRITE,), flags="all")),
    ("incl decl", Mnemonic((READ_WRITE,), flags="all-but-cf")),
    ("idivl", Mnemonic((READ,), frozenset({"eax", "edx"}),
                       frozenset({"eax", "edx"}))),
    ("cltd", Mnemonic((), frozenset({"eax"}), frozenset({"edx"}))),
    ("pushl", Mnemonic((READ,), _ESP, _ESP, "store")),
    ("popl", Mnemonic((WRITE,), _ESP, _ESP, "load")),
    (" ".join(sorted(JUMPS)), Mnemonic((TARGET,))),
    ("call", Mnemonic((TARGET,), _ESP, _ESP, "store")),
    ("ret", Mnemonic((), _ESP, _ESP, "load")),
    ("leave", Mnemonic((), frozenset({"ebp"}), frozenset({"esp", "ebp"}),
                       "load")),
    ("nop halt", Mnemonic()),
) for name in names.split()}
ALL_MNEMONICS = MNEMONICS.keys()

#: AT&T spellings the assembler takes for a table mnemonic
ALIASES = {"push": "pushl", "pop": "popl"}

_ARITY = {0: "no operands", 1: "one operand", 2: "two operands"}


def operand_errors(mnemonic: str, operands: tuple[Operand, ...]
                   ) -> list[tuple[str, str]]:
    """Every operand error in one instruction of a known mnemonic, as
    ``(kind, message)`` pairs, in the order the assembler reports them.

    The kinds are ``arity`` (also a jump or call target that is not a
    label or register), ``two-memory`` (IA-32 encodes at most one memory
    operand; a bare data label is one, as the assembler resolves it),
    ``immediate-dest`` (an immediate or ``$label`` in a written role)
    and ``address-operand`` (a ``leal`` source that is not memory, so
    has no address to compute).  Operand kinds the machine checks as it
    executes — a byte op on a 32-bit register, ``movzbl`` to memory —
    are not errors here.
    """
    roles = MNEMONICS[mnemonic].roles
    errors = []
    if len(operands) != len(roles):
        what = "one target" if roles == (TARGET,) else _ARITY[len(roles)]
        errors.append(("arity", f"{mnemonic} takes {what}"))
    elif roles == (TARGET,) and not isinstance(operands[0],
                                               (LabelRef, Register)):
        errors.append(("arity", f"{mnemonic} target must be a label (or "
                                "register for indirect)"))
    if TARGET not in roles and sum(isinstance(op, (Memory, LabelRef))
                                   for op in operands) > 1:
        errors.append(("two-memory",
                       f"{mnemonic} cannot take two memory operands"))
    if len(operands) == len(roles):
        which = "destination" if len(roles) == 2 else "operand"
        for op, role in zip(operands, roles):
            if role in (WRITE, READ_WRITE) \
                    and isinstance(op, (Immediate, LabelImmediate)):
                errors.append(("immediate-dest",
                               f"{mnemonic} writes its {which}, which "
                               "cannot be an immediate"))
            elif role == ADDRESS and not isinstance(op, (Memory, LabelRef)):
                errors.append(("address-operand",
                               f"{mnemonic} source must be a memory "
                               "operand"))
    return errors


@dataclass
class Instruction:
    """One decoded instruction at a fixed text address."""
    mnemonic: str
    operands: tuple[Operand, ...] = ()
    address: int = 0
    source_line: int = 0
    label: str | None = None   # label defined at this address, if any

    def __str__(self) -> str:
        if not self.operands:
            return self.mnemonic
        return f"{self.mnemonic} " + ", ".join(str(o) for o in self.operands)


@dataclass
class Program:
    """An assembled program: instructions by address, labels, entry point,
    and the initialised-data image to load at ``data_base``."""
    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    entry: str = "main"
    data_image: bytes = b""
    data_base: int = 0
    #: decode-once handler table built lazily by the machine's run loop
    #: (address → generated handler); shared by every Machine executing
    #: this program — see repro.isa.codegen.handler
    predecoded: dict | None = field(default=None, init=False,
                                    repr=False, compare=False)
    #: addresses of instructions whose every memory access the
    #: optimizer's value-range analysis proved inside the stack
    #: (repro.analysis.opt stamps this; the JIT elides per-access
    #: bounds guards for exactly these instructions)
    stack_safe: frozenset | None = field(default=None, init=False,
                                         repr=False, compare=False)
    #: superblocks the JIT formed for this program, keyed by entry
    #: address plus code-generation settings; the generated code is
    #: machine-independent, so every machine executing this program
    #: binds the same code objects, which every block of the same
    #: shape shares too, in this program or another (see repro.isa.jit)
    jit_blocks: dict = field(init=False, repr=False, compare=False)
    #: the assembled CFG superblocks are formed from, built lazily
    asm_cfg: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.by_address = {ins.address: ins for ins in self.instructions}
        self.invalidate_predecode()

    def invalidate_predecode(self) -> None:
        """Drop the cached handler table, CFG and JIT blocks (after
        patching instructions)."""
        self.predecoded = None
        self.asm_cfg = None
        self.jit_blocks = {}

    @property
    def entry_address(self) -> int:
        if self.entry not in self.labels:
            raise AssemblerError(f"program has no {self.entry!r} label")
        return self.labels[self.entry]

    def at(self, address: int) -> Instruction | None:
        return self.by_address.get(address)

    def label_at(self, address: int) -> str | None:
        for name, addr in self.labels.items():
            if addr == address:
                return name
        return None

    def listing(self) -> str:
        """Address-annotated disassembly of the whole program."""
        lines = []
        for ins in self.instructions:
            if ins.label:
                lines.append(f"{ins.label}:")
            lines.append(f"  {ins.address:#010x}:  {ins}")
        return "\n".join(lines)
