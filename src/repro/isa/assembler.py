"""Two-pass assembler for the IA-32 subset (AT&T syntax).

Accepts the assembly dialect the course reads and writes: ``movl $5,
%eax``, ``addl %ebx, %eax``, ``movl 8(%ebp), %eax``, indexed forms like
``movl (%eax,%ecx,4), %edx``, labels, jumps, call/ret/leave, and
comments (``#`` to end of line, outside a quoted string). :func:`scan`
reads the source into one record per line; :func:`assemble` lays
instructions out at 4-byte slots
in the text region, resolves label references, and raises the first
error the scan yields. The asm lint (:mod:`repro.analysis.asmlint`)
reports every error of the same scan, so the two tools agree by
construction.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from repro.clib.address_space import TEXT_BASE
from repro.errors import AssemblerError
from repro.isa.instructions import (
    ALIASES,
    INSTRUCTION_SIZE,
    MNEMONICS,
    TARGET,
    Immediate,
    Instruction,
    LabelImmediate,
    LabelRef,
    Memory,
    Operand,
    Program,
    Register,
    operand_errors,
)
from repro.isa.registers import GP32, SUB16, SUB8

_LABEL_RE = re.compile(r"^([A-Za-z_.][\w.$]*):$")
_MEM_RE = re.compile(
    r"^(-?(?:0x[0-9a-fA-F]+|\d+))?"          # displacement
    r"\(\s*(%\w+)?\s*(?:,\s*(%\w+)\s*(?:,\s*([1248]))?)?\s*\)$")

_VALID_REGS = set(GP32) | set(SUB16) | set(SUB8) | {"eip"}


def _parse_int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblerError(f"bad integer literal {text!r}") from None


def _parse_register(tok: str) -> str:
    if not tok.startswith("%"):
        raise AssemblerError(f"expected register, got {tok!r}")
    name = tok[1:]
    if name not in _VALID_REGS:
        raise AssemblerError(f"unknown register {tok!r}")
    return name


def parse_operand(tok: str) -> Operand:
    """Parse one AT&T operand: $imm, %reg, disp(base,index,scale), label."""
    tok = tok.strip()
    if not tok:
        raise AssemblerError("empty operand")
    if tok.startswith("$"):
        body = tok[1:]
        if re.fullmatch(r"[A-Za-z_.][\w.$]*", body):
            return LabelImmediate(body)        # $label: address-of
        return Immediate(_parse_int(body))
    if tok.startswith("%"):
        return Register(_parse_register(tok))
    m = _MEM_RE.match(tok)
    if m:
        disp = _parse_int(m.group(1)) if m.group(1) else 0
        base = _parse_register(m.group(2)) if m.group(2) else None
        index = _parse_register(m.group(3)) if m.group(3) else None
        scale = int(m.group(4)) if m.group(4) else 1
        return Memory(disp, base, index, scale)
    # bare integer = absolute memory address (rare, but legal AT&T)
    if re.fullmatch(r"-?(?:0x[0-9a-fA-F]+|\d+)", tok):
        return Memory(displacement=_parse_int(tok))
    # otherwise: a label reference
    if re.fullmatch(r"[A-Za-z_.][\w.$]*", tok):
        return LabelRef(tok)
    raise AssemblerError(f"cannot parse operand {tok!r}")


def _split_operands(text: str) -> list[str]:
    """Split on commas that are not inside parentheses."""
    parts: list[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


#: the directives that emit data bytes (only ``.data`` may hold them)
DATA_DIRECTIVES = frozenset({".long", ".byte", ".space", ".ascii", ".asciz",
                             ".string"})
#: what each escape in a string directive stands for; any other
#: backslash pair is kept as written
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _unescape(body: str) -> bytes:
    """The bytes of a string directive's quoted body, escapes decoded
    left to right."""
    out = []
    k = 0
    while k < len(body):
        pair = body[k:k + 2]
        if len(pair) == 2 and pair[0] == "\\":
            out.append(_ESCAPES.get(pair[1], pair))
            k += 2
        else:
            out.append(body[k])
            k += 1
    return "".join(out).encode()


def _strip_comment(line: str) -> str:
    """``line`` up to its first ``#`` outside a double-quoted string."""
    if '"' not in line:
        return line.split("#", 1)[0]
    quoted = escaped = False
    for k, ch in enumerate(line):
        if escaped:
            escaped = False
        elif ch == "\\" and quoted:
            escaped = True
        elif ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:k]
    return line


def _data_bytes(directive: str, rest: str) -> bytes:
    """The bytes one ``.data`` directive emits."""
    if directive == ".long":
        return b"".join((_parse_int(tok) & 0xFFFF_FFFF).to_bytes(4, "little")
                        for tok in _split_operands(rest))
    if directive == ".byte":
        return bytes(_parse_int(tok) & 0xFF for tok in _split_operands(rest))
    if directive == ".space":
        count = _parse_int(rest)
        if count < 0:
            raise AssemblerError(f".space count {count} is negative")
        return bytes(count)
    if directive in (".asciz", ".string", ".ascii"):
        if len(rest) < 2 or rest[0] != '"' or rest[-1] != '"':
            raise AssemblerError(f"{directive} needs a quoted string")
        body = _unescape(rest[1:-1])
        return body if directive == ".ascii" else body + b"\x00"
    raise AssemblerError(f"unknown data directive {directive!r}")


class Section(NamedTuple):
    """A ``.text`` or ``.data`` line: later lines go to that section."""
    line: int
    name: str


class Label(NamedTuple):
    """A label definition (a duplicate is also a :class:`ScanError`)."""
    line: int
    name: str


class Data(NamedTuple):
    """A data directive in ``.data``, as the bytes it emits."""
    line: int
    data: bytes


class Directive(NamedTuple):
    """A directive in ``.text`` that emits no data (``.globl``,
    ``.align``, ...); the assembler ignores it."""
    line: int
    text: str


class ScanError(NamedTuple):
    """A line the assembler rejects; the lint reports it as ``asm-<kind>``."""
    line: int
    kind: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


Record = Section | Label | Data | Directive | Instruction | ScanError


def _parse_instruction(word: str, rest: str) -> tuple:
    """``(mnemonic, operands, errors, label names)`` of an instruction
    line's first word and the rest of it.

    ``errors`` holds the ``(kind, message)`` of each reason the line is
    rejected (then ``operands`` may be empty); ``label names`` are the
    labels its operands refer to, in order. Operands are frozen, so one
    parse serves every line with the same text.
    """
    mnemonic = word.lower()
    mnemonic = ALIASES.get(mnemonic, mnemonic)
    if mnemonic not in MNEMONICS:
        return (mnemonic, (), (("unknown-mnemonic",
                                f"unknown mnemonic {mnemonic!r}"),), ())
    try:
        operands = tuple(parse_operand(t) for t in _split_operands(rest))
    except AssemblerError as exc:
        return mnemonic, (), (("syntax", str(exc)),), ()
    names = tuple(op.name for op in operands
                  if isinstance(op, (LabelRef, LabelImmediate)))
    return (mnemonic, operands, tuple(operand_errors(mnemonic, operands)),
            names)


def scan(source: str) -> Iterator[Record]:
    """Read AT&T source into records, one per non-blank line in order.

    An instruction is an :class:`Instruction` (no address yet) whose
    operands passed :func:`~repro.isa.instructions.operand_errors`; a
    line that fails yields a :class:`ScanError` in its place, one per
    operand error.  A duplicate label yields its error, then its
    :class:`Label`.  After the last line, each reference to a label no
    line defines is an ``undefined-label`` error at the referring line.
    """
    defined: dict[str, int] = {}          # label -> defining line
    used: list[tuple[str, int]] = []      # (label, line of use)
    # instruction line text -> its parse: compiled code repeats lines
    # (``pushl %ebp``, ``movl -4(%ebp), %eax``) many times over
    parsed: dict[str, tuple] = {}
    in_data = False
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line == ".data" or line == ".text":
            in_data = line == ".data"
            yield Section(lineno, line[1:])
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            name = label_match.group(1)
            if name in defined:
                yield ScanError(lineno, "duplicate-label",
                                f"duplicate label {name!r}, already "
                                f"defined on line {defined[name]}")
            else:
                defined[name] = lineno
            yield Label(lineno, name)
            continue
        parts = line.split(None, 1)
        word = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if word[0] == ".":
            if not in_data:
                if word in DATA_DIRECTIVES:
                    yield ScanError(lineno, "data-in-text",
                                    f"{word} is only allowed in .data")
                else:
                    yield Directive(lineno, line)
                continue
            try:
                data = _data_bytes(word, rest)
            except AssemblerError as exc:
                yield ScanError(lineno, "syntax", str(exc))
                continue
            yield Data(lineno, data)
            continue
        if in_data:
            yield ScanError(lineno, "instruction-in-data",
                            "instructions are not allowed in .data")
            continue
        got = parsed.get(line)
        if got is None:
            got = parsed[line] = _parse_instruction(word, rest)
        mnemonic, operands, errors, names = got
        for name in names:
            used.append((name, lineno))
        for kind, message in errors:
            yield ScanError(lineno, kind, message)
        if not errors:
            yield Instruction(mnemonic, operands, source_line=lineno)
    for name, lineno in used:
        if name not in defined:
            yield ScanError(lineno, "undefined-label",
                            f"undefined label {name!r}")


def assemble(source: str, *, entry: str = "main",
             base_address: int = TEXT_BASE,
             data_base: int | None = None) -> Program:
    """Assemble AT&T source text into a :class:`Program`.

    Supports ``.text``/``.data`` sections. In the data section, labels
    name positions in the initialised-data image and the directives
    ``.long``, ``.byte``, ``.space``, ``.asciz``/``.string``/``.ascii``
    emit bytes; the three string directives decode the escapes ``\\n``,
    ``\\t``, ``\\"`` and ``\\\\``, and all but ``.ascii`` add a NUL.  A
    data directive in the text section is an error, as an instruction
    in the data section is.  Data labels are usable from code as
    ``label`` (a memory operand) or ``$label`` (the address as an
    immediate).  The first :class:`ScanError` of :func:`scan` raises,
    naming its line.
    """
    from repro.clib.address_space import DATA_BASE
    if data_base is None:
        data_base = DATA_BASE

    instructions: list[Instruction] = []
    labels: dict[str, int] = {}
    pending_labels: list[str] = []
    address = base_address
    data_image = bytearray()
    in_data = False

    for record in scan(source):
        if isinstance(record, Instruction):
            record.address = address
            if pending_labels:
                record.label = pending_labels[0]
                pending_labels.clear()
            instructions.append(record)
            address += INSTRUCTION_SIZE
        elif isinstance(record, Label):
            if in_data:
                labels[record.name] = data_base + len(data_image)
            else:
                labels[record.name] = address
                pending_labels.append(record.name)
        elif isinstance(record, Data):
            data_image += record.data
        elif isinstance(record, Section):
            in_data = record.name == "data"
        elif isinstance(record, ScanError):
            raise AssemblerError(str(record))

    # labels at the very end point one past the last instruction
    for name in pending_labels:
        labels[name] = address

    # pass two: resolve label references (scan checked they exist)
    for ins in instructions:
        resolved = []
        for op, role in zip(ins.operands, MNEMONICS[ins.mnemonic].roles):
            if isinstance(op, (LabelRef, LabelImmediate)):
                addr = labels[op.name]
                if isinstance(op, LabelImmediate):
                    resolved.append(Immediate(addr))
                elif role == TARGET:
                    resolved.append(LabelRef(op.name, addr))
                else:
                    # data reference: `movl counter, %eax` loads FROM
                    # the label's address (AT&T absolute addressing)
                    resolved.append(Memory(displacement=addr))
            else:
                resolved.append(op)
        ins.operands = tuple(resolved)

    return Program(instructions, labels, entry=entry,
                   data_image=bytes(data_image), data_base=data_base)
