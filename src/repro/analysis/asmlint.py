"""Assembler-level lint for the IA-32 subset (AT&T syntax).

Where :func:`repro.isa.assembler.assemble` *rejects* a program at the
first problem, the lint walks the whole source and reports every issue
as a :class:`~repro.analysis.report.Finding`:

* syntax/operand problems and unknown mnemonics (what the assembler
  would raise, demoted to per-line findings);
* arity violations per mnemonic class;
* two memory operands in one instruction (a bare data label counts as
  memory, as the assembler resolves it);
* duplicate label definitions and references to undefined labels;
* writes to a read-only operand (an immediate destination);
* unreachable instructions — code after an unconditional ``jmp``,
  ``ret``, or ``halt`` that no label makes addressable again;
* self-moves (``movl %eax, %eax``) — a no-op that usually means a
  typo'd register;
* dead stores — a ``mov`` to a memory location overwritten by another
  ``mov`` to the same location with no intervening read, label, or
  control transfer (the window where the first value could be seen).

It shares the operand grammar and mnemonic tables with the real
assembler, so the two can never disagree about what parses.
"""

from __future__ import annotations

import re

from repro.analysis.report import Finding, finding
from repro.errors import AssemblerError
from repro.isa.assembler import _split_operands, parse_operand
from repro.isa.instructions import (
    ALL_MNEMONICS,
    ARITH1,
    ARITH2,
    CALLS,
    Immediate,
    JUMPS,
    LabelImmediate,
    LabelRef,
    Memory,
    Register,
    ZEROARY,
)

_LABEL_RE = re.compile(r"^([A-Za-z_.][\w.$]*):$")

#: control never falls through these
_NO_FALLTHROUGH = {"jmp", "ret", "halt"}

#: one-operand mnemonics that write their operand
_ARITH1_WRITES = {"notl", "negl", "incl", "decl", "popl"}

#: two-operand mnemonics that only read their second operand
_ARITH2_READONLY_DEST = {"cmpl", "testl", "cmpb"}

#: pure overwrites: dest is written without being read first
_PURE_MOVES = {"movl", "movb", "movzbl", "movsbl", "leal"}

#: registers a mnemonic writes besides its explicit operands
_IMPLICIT_WRITES = {"idivl": {"eax", "edx"}, "cltd": {"edx"},
                    "pushl": {"esp"}, "popl": {"esp"},
                    "leave": {"esp", "ebp"}}


def lint_asm(source: str, path: str = "") -> list[Finding]:
    """Lint assembly source text; returns every finding (never raises)."""
    findings: list[Finding] = []
    defined: dict[str, int] = {}          # label -> defining line
    used: list[tuple[str, int]] = []      # (label, line of use)
    section = "text"
    #: is the next instruction reachable by fall-through or a label?
    reachable = True
    reported_region = False
    #: straight-line store tracking for asm-dead-store:
    #: memory-operand key -> (line, width, rendered operand)
    pending: dict[tuple, tuple[int, int, str]] = {}

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in (".data", ".text"):
            section = line[1:]
            reachable = True
            reported_region = False
            pending.clear()
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            name = label_match.group(1)
            if name in defined:
                findings.append(finding(
                    "asm-duplicate-label", "", lineno,
                    f"label {name!r} already defined on line "
                    f"{defined[name]}", path=path))
            else:
                defined[name] = lineno
            reachable = True
            reported_region = False
            pending.clear()
            continue
        if section == "data" or line.startswith("."):
            continue                      # data directives: assembler's job

        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        if mnemonic == "push":
            mnemonic = "pushl"
        elif mnemonic == "pop":
            mnemonic = "popl"
        if mnemonic not in ALL_MNEMONICS:
            findings.append(finding(
                "asm-unknown-mnemonic", "", lineno,
                f"unknown mnemonic {mnemonic!r}", path=path))
            continue

        operand_text = parts[1] if len(parts) > 1 else ""
        try:
            operands = tuple(parse_operand(t)
                             for t in _split_operands(operand_text))
        except AssemblerError as exc:
            findings.append(finding(
                "asm-syntax", "", lineno, str(exc), path=path))
            continue

        if not reachable and not reported_region:
            reported_region = True
            findings.append(finding(
                "asm-unreachable", "", lineno,
                "instruction can never execute (follows an "
                "unconditional jump/return with no label)", path=path))

        findings.extend(_check_instruction(mnemonic, operands,
                                           lineno, path))
        findings.extend(_track_dead_stores(mnemonic, operands,
                                           lineno, pending, path))
        for op in operands:
            if isinstance(op, (LabelRef, LabelImmediate)):
                used.append((op.name, lineno))

        if mnemonic in _NO_FALLTHROUGH:
            reachable = False

    for name, lineno in used:
        if name not in defined:
            findings.append(finding(
                "asm-undefined-label", "", lineno,
                f"reference to undefined label {name!r}", path=path))

    return sorted(findings, key=Finding.sort_key)


def _mem_key(op: Memory) -> tuple:
    return (op.displacement, op.base, op.index, op.scale)


def _track_dead_stores(mnemonic, operands, lineno, pending,
                       path) -> list[Finding]:
    """Advance the straight-line store tracker by one instruction.

    ``pending`` maps a memory-operand key to the line/width of a
    ``mov`` store whose value has not been read yet.  A second
    same-width ``mov`` to the same operand reports the first as dead.
    Anything that could observe the value — a memory read (aliasing is
    out of scope, so *any* read), a write to a register the address is
    computed from, or a control transfer — drops the relevant entries.
    """
    out: list[Finding] = []
    if mnemonic in JUMPS or mnemonic in CALLS \
            or mnemonic in ("ret", "halt"):
        pending.clear()
        return out
    pure_store = (mnemonic in _PURE_MOVES and len(operands) == 2
                  and isinstance(operands[1], Memory))
    sources = operands[:1] if pure_store else operands
    reads_mem = (mnemonic != "leal"
                 and any(isinstance(op, Memory) for op in sources))
    if reads_mem:
        pending.clear()
    written = set(_IMPLICIT_WRITES.get(mnemonic, ()))
    if (mnemonic in ARITH2 and mnemonic not in _ARITH2_READONLY_DEST
            and len(operands) == 2 and isinstance(operands[1], Register)):
        written.add(operands[1].name)
    if (mnemonic in _ARITH1_WRITES and len(operands) == 1
            and isinstance(operands[0], Register)):
        written.add(operands[0].name)
    if written and pending:
        for key in [k for k in pending
                    if k[1] in written or k[2] in written]:
            del pending[key]
    if pure_store:
        key = _mem_key(operands[1])
        width = 1 if mnemonic == "movb" else 4
        prev = pending.get(key)
        if prev is not None and prev[1] == width:
            out.append(finding(
                "asm-dead-store", "", prev[0],
                f"value stored to {prev[2]} is overwritten on line "
                f"{lineno} without being read", path=path))
        pending[key] = (lineno, width, str(operands[1]))
    return out


def _check_instruction(mnemonic, operands, lineno, path) -> list[Finding]:
    out: list[Finding] = []

    def add(kind: str, message: str) -> None:
        out.append(finding(kind, "", lineno, message, path=path))

    if mnemonic in ARITH2 and len(operands) != 2:
        add("asm-arity", f"{mnemonic} takes two operands")
    elif mnemonic in ARITH1 and len(operands) != 1:
        add("asm-arity", f"{mnemonic} takes one operand")
    elif mnemonic in JUMPS | CALLS:
        if len(operands) != 1:
            add("asm-arity", f"{mnemonic} takes one target")
        elif not isinstance(operands[0], (LabelRef, Register)):
            add("asm-arity",
                f"{mnemonic} target must be a label (or register "
                "for indirect)")
    elif mnemonic in ZEROARY and operands:
        add("asm-arity", f"{mnemonic} takes no operands")

    # IA-32 encodes at most one memory operand; outside jumps and calls
    # the assembler resolves a bare data label to one
    if (mnemonic not in JUMPS | CALLS and len(operands) == 2
            and all(isinstance(op, (Memory, LabelRef)) for op in operands)):
        add("asm-two-memory",
            f"{mnemonic} cannot take two memory operands")

    # writes to a read-only operand: an immediate destination
    if (mnemonic in ARITH2 and mnemonic not in _ARITH2_READONLY_DEST
            and len(operands) == 2
            and isinstance(operands[1], (Immediate, LabelImmediate))):
        add("asm-immediate-dest",
            f"{mnemonic} writes its destination, which cannot be an "
            "immediate")
    if (mnemonic in _ARITH1_WRITES and len(operands) == 1
            and isinstance(operands[0], (Immediate, LabelImmediate))):
        add("asm-immediate-dest",
            f"{mnemonic} writes its operand, which cannot be an "
            "immediate")

    # a register moved onto itself: a no-op, usually a typo
    if (mnemonic in ("movl", "movb") and len(operands) == 2
            and isinstance(operands[0], Register)
            and isinstance(operands[1], Register)
            and operands[0].name == operands[1].name):
        add("asm-self-move",
            f"{mnemonic} {operands[0]}, {operands[1]} has no effect")
    return out
