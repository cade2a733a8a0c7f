"""Assembler-level lint for the IA-32 subset (AT&T syntax).

Where :func:`repro.isa.assembler.assemble` *rejects* a program at the
first problem, the lint walks the whole source and reports every issue
as a :class:`~repro.analysis.report.Finding`:

* syntax/operand problems and unknown mnemonics (what the assembler
  would raise, demoted to per-line findings);
* the errors of :func:`~repro.isa.instructions.operand_errors`, which
  checks each instruction against its row of the mnemonic table: arity
  and jump targets, two memory operands in one instruction (a bare data
  label counts as memory, as the assembler resolves it), an immediate
  in a written role, and a ``leal`` source that is not memory;
* duplicate label definitions and references to undefined labels;
* an instruction (any line but a label or a directive) in ``.data``;
* unreachable instructions — code after an unconditional ``jmp``,
  ``ret``, or ``halt`` that no label makes addressable again;
* self-moves (``movl %eax, %eax``) — a no-op that usually means a
  typo'd register;
* dead stores — a ``mov`` to a memory location overwritten by another
  ``mov`` to the same location with no intervening read, label, or
  control transfer (the window where the first value could be seen);
  the reads and register writes come from the effect functions of
  :mod:`repro.isa.semantics`.

It shares the operand grammar and the operand check with the real
assembler, so it reports an error-severity finding exactly where
:func:`~repro.isa.assembler.assemble` raises.
"""

from __future__ import annotations

import re

from repro.analysis.report import Finding, finding
from repro.errors import AssemblerError
from repro.isa.assembler import _split_operands, parse_operand
from repro.isa.instructions import (
    ALIASES,
    CALLS,
    JUMPS,
    MNEMONICS,
    WRITE,
    Instruction,
    LabelImmediate,
    LabelRef,
    Memory,
    Register,
    operand_errors,
)
from repro.isa.semantics import has_mem_read, regs_written

_LABEL_RE = re.compile(r"^([A-Za-z_.][\w.$]*):$")

#: control never falls through these
_NO_FALLTHROUGH = {"jmp", "ret", "halt"}


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
        if line.startswith("."):
            continue                      # directives: assembler's job
        if section == "data":
            findings.append(finding(
                "asm-instruction-in-data", "", lineno,
                "instructions are not allowed in .data", path=path))
            continue

        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        mnemonic = ALIASES.get(mnemonic, mnemonic)
        if mnemonic not in MNEMONICS:
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

        errors = operand_errors(mnemonic, operands)
        for kind, message in errors:
            findings.append(finding(f"asm-{kind}", "", lineno, message,
                                    path=path))
        if (mnemonic in ("movl", "movb") and len(operands) == 2
                and isinstance(operands[0], Register)
                and operands[0] == operands[1]):
            findings.append(finding(
                "asm-self-move", "", lineno,
                f"{mnemonic} {operands[0]}, {operands[1]} has no effect",
                path=path))
        if errors:
            pending.clear()       # its effects are unknown
        else:
            findings.extend(_track_dead_stores(
                Instruction(mnemonic, operands), lineno, pending, path))
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


def _track_dead_stores(ins: Instruction, lineno, pending,
                       path) -> list[Finding]:
    """Advance the straight-line store tracker by one instruction that
    passed :func:`~repro.isa.instructions.operand_errors`.

    ``pending`` maps a memory-operand key to the line/width of a store
    to a write-only operand whose value has not been read yet.  A
    second same-width such store to the same operand reports the first
    as dead.  Anything that could observe the value — a memory read
    (aliasing is out of scope, so *any* read), a write to a register
    the address is computed from, or a control transfer — drops the
    relevant entries.
    """
    out: list[Finding] = []
    m = ins.mnemonic
    if m in JUMPS or m in CALLS or m in _NO_FALLTHROUGH:
        pending.clear()
        return out
    if has_mem_read(ins):
        pending.clear()
    written = regs_written(ins)
    if written and pending:
        for key in [k for k in pending
                    if k[1] in written or k[2] in written]:
            del pending[key]
    dst = ins.operands[-1] if ins.operands else None
    if MNEMONICS[m].roles[-1:] == (WRITE,) and isinstance(dst, Memory):
        key = _mem_key(dst)
        width = 1 if m == "movb" else 4
        prev = pending.get(key)
        if prev is not None and prev[1] == width:
            out.append(finding(
                "asm-dead-store", "", prev[0],
                f"value stored to {prev[2]} is overwritten on line "
                f"{lineno} without being read", path=path))
        pending[key] = (lineno, width, str(dst))
    return out
