"""Assembler-level lint for the IA-32 subset (AT&T syntax).

Where :func:`repro.isa.assembler.assemble` *rejects* a program at the
first problem, the lint reads the same records from
:func:`repro.isa.assembler.scan` and reports every issue as a
:class:`~repro.analysis.report.Finding`:

* each error of the scan, as ``asm-<kind>``: an operand or data
  directive that does not parse (``asm-syntax``), an unknown mnemonic,
  an instruction in ``.data``, a data directive in ``.text``, a
  duplicate label, a reference to an undefined label, and the errors of
  :func:`~repro.isa.instructions.operand_errors` (arity and jump
  targets, two memory operands, an immediate in a written role, a
  ``leal`` source that is not memory);
* unreachable instructions — code after an unconditional ``jmp``,
  ``ret``, or ``halt`` that no label makes addressable again;
* self-moves (``movl %eax, %eax``) — a no-op that usually means a
  typo'd register;
* dead stores — a ``mov`` to a memory location overwritten by another
  ``mov`` to the same location with no intervening read, label, or
  control transfer (the window where the first value could be seen);
  the reads and register writes come from the effect functions of
  :mod:`repro.isa.semantics`.

Both tools consume one scan, so the lint reports an error-severity
finding exactly where ``assemble`` raises.
"""

from __future__ import annotations

from repro.analysis.report import Finding, finding
from repro.isa.assembler import Label, ScanError, Section, scan
from repro.isa.instructions import (
    CALLS,
    JUMPS,
    MNEMONICS,
    WRITE,
    Instruction,
    Memory,
    Register,
)
from repro.isa.semantics import has_mem_read, regs_written

#: control never falls through these
_NO_FALLTHROUGH = {"jmp", "ret", "halt"}


def lint_asm(source: str, path: str = "") -> list[Finding]:
    """Lint assembly source text; returns every finding (never raises)."""
    findings: list[Finding] = []
    #: is the next instruction reachable by fall-through or a label?
    reachable = True
    reported_region = False
    #: straight-line store tracking for asm-dead-store:
    #: memory-operand key -> (line, width, rendered operand)
    pending: dict[tuple, tuple[int, int, str]] = {}

    for record in scan(source):
        if isinstance(record, ScanError):
            findings.append(finding(f"asm-{record.kind}", "", record.line,
                                    record.message, path=path))
            pending.clear()       # its effects are unknown
        elif isinstance(record, (Section, Label)):
            reachable = True
            reported_region = False
            pending.clear()
        elif isinstance(record, Instruction):
            ops = record.operands
            if not reachable and not reported_region:
                reported_region = True
                findings.append(finding(
                    "asm-unreachable", "", record.source_line,
                    "instruction can never execute (follows an "
                    "unconditional jump/return with no label)", path=path))
            if (record.mnemonic in ("movl", "movb") and len(ops) == 2
                    and isinstance(ops[0], Register) and ops[0] == ops[1]):
                findings.append(finding(
                    "asm-self-move", "", record.source_line,
                    f"{record} has no effect", path=path))
            findings.extend(_track_dead_stores(record, pending, path))
            if record.mnemonic in _NO_FALLTHROUGH:
                reachable = False

    return sorted(findings, key=Finding.sort_key)


def _mem_key(op: Memory) -> tuple:
    return (op.displacement, op.base, op.index, op.scale)


def _track_dead_stores(ins: Instruction, pending, path) -> list[Finding]:
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
                f"{ins.source_line} without being read", path=path))
        pending[key] = (ins.source_line, width, str(dst))
    return out
