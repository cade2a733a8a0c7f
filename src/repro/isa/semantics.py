"""What each instruction of the IA-32 subset means, outside the code writer.

The optimizer and its validator take an instruction's meaning from
here, and the code writer takes its jump conditions, so the layers
cannot drift apart:

* :data:`COND_SRC`, the jump conditions as Python expressions over the
  flags; :data:`JCC_READS` and :data:`TAKEN` are derived from its text;
* :func:`fold`, an instruction's result on known operand values,
  computed by the machine's own generated handler;
* the register, flag and memory effect functions.

It imports nothing from :mod:`repro.analysis`.
"""

from __future__ import annotations

import re
from types import SimpleNamespace

from repro.binary.twos_complement import MASK32
from repro.isa.instructions import CALLS, Immediate, Instruction, Memory, Register
from repro.isa.registers import GP32, SUB8, SUB16, RegisterSet

GP = GP32
FLAG_NAMES = ("zf", "sf", "cf", "of")

#: sub-register name -> the 32-bit register it is a slice of
PARENT = {**SUB16, **{name: parent for name, (parent, _) in SUB8.items()}}

ADDSUB = frozenset({"addl", "subl", "cmpl"})
LOGIC = frozenset({"andl", "orl", "xorl", "testl"})
SHIFTS = frozenset({"sall", "shll", "sarl", "shrl"})
SETS_ALL_FLAGS = ADDSUB | LOGIC | {"cmpb", "imull", "negl"}
SETS_NO_CF = frozenset({"incl", "decl"})


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
# instruction effects
# ---------------------------------------------------------------------------

def _reg(name: str) -> str:
    """The 32-bit register behind a register name."""
    return PARENT.get(name, name)


def _mem_regs(op) -> set[str]:
    regs = set()
    if isinstance(op, Memory):
        if op.base:
            regs.add(_reg(op.base))
        if op.index:
            regs.add(_reg(op.index))
    return regs


def sub_parents(ins: Instruction) -> set[str]:
    """Parents of the sub-register operands: writing %ax or %al keeps
    the rest of %eax, so such an operand reads its parent even as a
    destination, and never kills it."""
    return {PARENT[op.name] for op in ins.operands
            if isinstance(op, Register) and op.name in PARENT}


def regs_read(ins: Instruction) -> set[str]:
    """32-bit registers this instruction reads (addresses included;
    a sub-register operand counts as its parent)."""
    m, ops = ins.mnemonic, ins.operands
    r: set[str] = sub_parents(ins)
    for op in ops:
        r |= _mem_regs(op)
    def src(op):
        if isinstance(op, Register):
            r.add(_reg(op.name))
    if m in ("movl", "movb", "movzbl", "movsbl"):
        src(ops[0])
    elif m in ("addl", "subl", "imull", "andl", "orl", "xorl",
               "cmpl", "testl", "cmpb") or m in SHIFTS:
        src(ops[0])
        src(ops[1])
    elif m in ("notl", "negl", "incl", "decl", "idivl"):
        src(ops[0])
        if m == "idivl":
            r |= {"eax", "edx"}
    elif m == "pushl":
        r.add("esp")
        src(ops[0])
    elif m == "popl":
        r.add("esp")
    elif m == "cltd":
        r.add("eax")
    elif m == "leave":
        r.add("ebp")
    elif m == "ret":
        r.add("esp")
    elif m in CALLS or m == "jmp":
        if ops:
            src(ops[0])
        if m in CALLS:
            r.add("esp")
    return r


def regs_written(ins: Instruction) -> set[str]:
    """32-bit registers this instruction writes (a sub-register
    destination counts as its parent)."""
    m, ops = ins.mnemonic, ins.operands
    if m in ("movl", "movb", "movzbl", "movsbl", "leal", "addl", "subl",
             "imull", "andl", "orl", "xorl") or m in SHIFTS:
        dst = ops[1]
        return {_reg(dst.name)} if isinstance(dst, Register) else set()
    if m in ("notl", "negl", "incl", "decl"):
        return {_reg(ops[0].name)} if isinstance(ops[0], Register) \
            else set()
    if m == "idivl":
        return {"eax", "edx"}
    if m == "cltd":
        return {"edx"}
    if m == "pushl":
        return {"esp"}
    if m == "popl":
        w = {"esp"}
        if isinstance(ops[0], Register):
            w.add(_reg(ops[0].name))
        return w
    if m == "leave":
        return {"esp", "ebp"}
    if m == "ret":
        return {"esp"}
    if m in CALLS:
        return {"esp"}
    return set()


def flags_written(ins: Instruction) -> set[str]:
    """Flags this instruction *definitely* overwrites."""
    m = ins.mnemonic
    if m in SETS_ALL_FLAGS:
        return set(FLAG_NAMES)
    if m in SETS_NO_CF:
        return {"zf", "sf", "of"}
    if m in SHIFTS:
        op = ins.operands[0]
        if isinstance(op, Immediate):
            return set(FLAG_NAMES) if (op.value & 31) else set()
        return set()          # dynamic count: may or may not write
    return set()


def flags_may_written(ins: Instruction) -> set[str]:
    """Flags this instruction *may* overwrite (shifts by a register)."""
    if ins.mnemonic in SHIFTS:
        return set(FLAG_NAMES)
    return flags_written(ins)


def flags_read(ins: Instruction) -> set[str]:
    return set(JCC_READS.get(ins.mnemonic, ()))


def has_mem_write(ins: Instruction) -> bool:
    """Does this instruction store to memory (explicit or stack)?"""
    m, ops = ins.mnemonic, ins.operands
    if m in ("pushl",) or m in CALLS:
        return True
    if m in ("movl", "movb", "addl", "subl", "imull", "andl", "orl",
             "xorl", "notl", "negl", "incl", "decl", "popl") \
            or m in SHIFTS:
        dst = ops[-1] if m != "popl" else ops[0]
        return isinstance(dst, Memory)
    return False


def has_mem_read(ins: Instruction) -> bool:
    """Does this instruction load from memory (explicit or stack)?"""
    m, ops = ins.mnemonic, ins.operands
    if m in ("popl", "ret", "leave"):
        return True
    if m == "leal":
        return False
    if m in ("movl", "movb", "movzbl", "movsbl", "pushl", "idivl",
             "notl", "negl", "incl", "decl"):
        return isinstance(ops[0], Memory)
    if m in ("addl", "subl", "imull", "andl", "orl", "xorl", "cmpl",
             "testl", "cmpb") or m in SHIFTS:
        return any(isinstance(o, Memory) for o in ops)
    return False
