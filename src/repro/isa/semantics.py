"""What each instruction of the IA-32 subset means, outside the code writer.

The optimizer and its validator take an instruction's meaning from
here, and the code writer takes its jump conditions, so the layers
cannot drift apart:

* :data:`COND_SRC`, the jump conditions as Python expressions over the
  flags; :data:`JCC_READS` and :data:`TAKEN` are derived from its text;
* :func:`fold`, an instruction's result on known operand values,
  computed by the machine's own generated handler;
* the register, flag and memory effect functions, which read each
  instruction's row of :data:`~repro.isa.instructions.MNEMONICS`.

It imports nothing from :mod:`repro.analysis`.
"""

from __future__ import annotations

import re
from types import SimpleNamespace

from repro.binary.twos_complement import MASK32
from repro.isa.instructions import (
    MNEMONICS,
    READ,
    READ_WRITE,
    TARGET,
    WRITE,
    Immediate,
    Instruction,
    LabelRef,
    Memory,
    Register,
)
from repro.isa.registers import GP32, SUB8, SUB16, RegisterSet

GP = GP32
FLAG_NAMES = ("zf", "sf", "cf", "of")

#: sub-register name -> the 32-bit register it is a slice of
PARENT = {**SUB16, **{name: parent for name, (parent, _) in SUB8.items()}}

ADDSUB = frozenset({"addl", "subl", "cmpl"})
LOGIC = frozenset({"andl", "orl", "xorl", "testl"})
SHIFTS = frozenset(m for m, row in MNEMONICS.items() if row.flags == "shift")


# ---------------------------------------------------------------------------
# jump conditions
# ---------------------------------------------------------------------------

#: conditional-jump predicates over the flags zf/sf/cf/of
COND_SRC = {
    "je": "zf", "jne": "not zf",
    "jg": "not zf and sf == of", "jge": "sf == of",
    "jl": "sf != of", "jle": "zf or sf != of",
    "ja": "not cf and not zf", "jae": "not cf",
    "jb": "cf", "jbe": "cf or zf",
    "js": "sf", "jns": "not sf",
}
FLAG_NAME = re.compile(r"\b[zsco]f\b")

#: which flags each conditional jump reads
JCC_READS = {m: tuple(dict.fromkeys(FLAG_NAME.findall(src)))
             for m, src in COND_SRC.items()}

#: is the jump taken, given a mapping of (at least) the flags it reads
TAKEN = {m: eval("lambda f: " + FLAG_NAME.sub(  # noqa: S307
             lambda mo: f"f[{mo.group()!r}]", src), {})
         for m, src in COND_SRC.items()}


# ---------------------------------------------------------------------------
# constant folds
# ---------------------------------------------------------------------------

_SRC, _DST = Register("ecx"), Register("eax")


def fold(mnemonic: str, dst: int, src: int | None = None
         ) -> tuple[int, dict[str, bool]]:
    """``(value, flags)`` of ``mnemonic`` on known operand values.

    Runs the machine's handler for the register form — ``m %ecx,
    %eax`` with ``src`` in %ecx and ``dst`` in %eax, or ``m %eax``
    without ``src`` — on a fresh register file. ``value`` is %eax
    afterwards (%edx for ``cltd``, which reads %eax); ``flags`` holds
    exactly the flags the instruction wrote, so a shift by a count of
    0 mod 32 writes none and ``incl``/``decl`` leave out ``cf``.
    """
    # imported here: the code writer imports this module's tables
    from repro.isa.codegen import handler
    regs = RegisterSet()
    regs._regs["eax"] = dst & MASK32
    if src is not None:
        regs._regs["ecx"] = src & MASK32
        ops: tuple = (_SRC, _DST)
    else:
        ops = () if mnemonic == "cltd" else (_DST,)
    flags = vars(regs.flags)
    flags.update(dict.fromkeys(FLAG_NAMES))      # None: not written
    handler(mnemonic, ops)(SimpleNamespace(regs=regs), 0)
    return (regs._regs["edx" if mnemonic == "cltd" else "eax"],
            {f: v for f, v in flags.items() if v is not None})


# ---------------------------------------------------------------------------
# instruction effects, read from the mnemonic table
# ---------------------------------------------------------------------------

_READ_ROLES = frozenset({READ, READ_WRITE, TARGET})
_WRITE_ROLES = frozenset({WRITE, READ_WRITE})
_FLAGS = {"": frozenset(), "all": frozenset(FLAG_NAMES),
          "all-but-cf": frozenset(FLAG_NAMES) - {"cf"}}
_STACK_LOADS = {m for m, row in MNEMONICS.items() if row.stack == "load"}
_STACK_STORES = {m for m, row in MNEMONICS.items() if row.stack == "store"}
#: positions of the operands each mnemonic reads, and of those it writes
_READ_AT = {m: tuple(k for k, role in enumerate(row.roles)
                     if role in _READ_ROLES) for m, row in MNEMONICS.items()}
_WRITTEN_AT = {m: tuple(k for k, role in enumerate(row.roles)
                        if role in _WRITE_ROLES)
               for m, row in MNEMONICS.items()}
#: a bare data label in a data role is memory: the assembler resolves
#: it to one, so the lint can ask before resolution
_MEMORY = (Memory, LabelRef)


def _reg(name: str) -> str:
    """The 32-bit register behind a register name."""
    return PARENT.get(name, name)


def sub_parents(ins: Instruction) -> set[str]:
    """Parents of the sub-register operands: writing %ax or %al keeps
    the rest of %eax, so such an operand reads its parent even as a
    destination, and never kills it."""
    return {PARENT[op.name] for op in ins.operands
            if isinstance(op, Register) and op.name in PARENT}


def regs_read(ins: Instruction) -> set[str]:
    """32-bit registers this instruction reads (addresses included;
    a sub-register operand counts as its parent)."""
    row = MNEMONICS[ins.mnemonic]
    r = set(row.reads)
    for op, role in zip(ins.operands, row.roles):
        if isinstance(op, Register):
            if op.name in PARENT:
                r.add(PARENT[op.name])
            elif role in _READ_ROLES:
                r.add(op.name)
        elif isinstance(op, Memory):
            if op.base:
                r.add(_reg(op.base))
            if op.index:
                r.add(_reg(op.index))
    return r


def regs_written(ins: Instruction) -> set[str]:
    """32-bit registers this instruction writes (a sub-register
    destination counts as its parent)."""
    m, ops = ins.mnemonic, ins.operands
    w = set(MNEMONICS[m].writes)
    for k in _WRITTEN_AT[m]:
        if isinstance(ops[k], Register):
            w.add(_reg(ops[k].name))
    return w


def flags_written(ins: Instruction) -> set[str]:
    """Flags this instruction *definitely* overwrites."""
    flags = MNEMONICS[ins.mnemonic].flags
    if flags == "shift":
        count = ins.operands[0]
        # by a register: may or may not write
        return set(FLAG_NAMES) if isinstance(count, Immediate) \
            and count.value & 31 else set()
    return set(_FLAGS[flags])


def flags_may_written(ins: Instruction) -> set[str]:
    """Flags this instruction *may* overwrite (shifts by a register)."""
    if MNEMONICS[ins.mnemonic].flags == "shift":
        return set(FLAG_NAMES)
    return flags_written(ins)


def flags_read(ins: Instruction) -> set[str]:
    return set(JCC_READS.get(ins.mnemonic, ()))


def has_mem_write(ins: Instruction) -> bool:
    """Does this instruction store to memory (explicit or stack)?"""
    m, ops = ins.mnemonic, ins.operands
    if m in _STACK_STORES:
        return True
    for k in _WRITTEN_AT[m]:
        if isinstance(ops[k], _MEMORY):
            return True
    return False


def has_mem_read(ins: Instruction) -> bool:
    """Does this instruction load from memory (explicit or stack)?"""
    m, ops = ins.mnemonic, ins.operands
    if m in _STACK_LOADS:
        return True
    for k in _READ_AT[m]:
        if isinstance(ops[k], _MEMORY):
            return True
    return False
