"""Two-pass assembler for the IA-32 subset (AT&T syntax).

Accepts the assembly dialect the course reads and writes: ``movl $5,
%eax``, ``addl %ebx, %eax``, ``movl 8(%ebp), %eax``, indexed forms like
``movl (%eax,%ecx,4), %edx``, labels, jumps, call/ret/leave, and
comments (``#`` to end of line). Pass one lays out instructions at
4-byte slots in the text region and collects labels; pass two resolves
label references. Each instruction's operands are checked against its
row of the mnemonic table (:func:`~repro.isa.instructions.operand_errors`)
as it is read, and the first error raises.
"""

from __future__ import annotations

import re

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


def _parse_data_directive(line: str, image: bytearray, lineno: int) -> None:
    """Append one .data directive's bytes to the image."""
    parts = line.split(None, 1)
    directive = parts[0]
    rest = parts[1] if len(parts) > 1 else ""
    if directive == ".long":
        for tok in _split_operands(rest):
            image.extend((_parse_int(tok) & 0xFFFF_FFFF)
                         .to_bytes(4, "little"))
    elif directive == ".byte":
        for tok in _split_operands(rest):
            image.append(_parse_int(tok) & 0xFF)
    elif directive == ".space":
        image.extend(b"\x00" * _parse_int(rest.strip()))
    elif directive in (".asciz", ".string"):
        text = rest.strip()
        if len(text) < 2 or text[0] != '"' or text[-1] != '"':
            raise AssemblerError(
                f"line {lineno}: {directive} needs a quoted string")
        body = (text[1:-1].replace("\\n", "\n").replace("\\t", "\t")
                .replace('\\"', '"').replace("\\\\", "\\"))
        image.extend(body.encode() + b"\x00")
    elif directive == ".ascii":
        text = rest.strip()
        if len(text) < 2 or text[0] != '"' or text[-1] != '"':
            raise AssemblerError(
                f"line {lineno}: .ascii needs a quoted string")
        image.extend(text[1:-1].encode())
    else:
        raise AssemblerError(
            f"line {lineno}: unknown data directive {directive!r}")


def assemble(source: str, *, entry: str = "main",
             base_address: int = TEXT_BASE,
             data_base: int | None = None) -> Program:
    """Assemble AT&T source text into a :class:`Program`.

    Supports ``.text``/``.data`` sections. In the data section, labels
    name positions in the initialised-data image and the directives
    ``.long``, ``.byte``, ``.space``, ``.asciz``/``.string``/``.ascii``
    emit bytes. Data labels are usable from code as ``label`` (a memory
    operand) or ``$label`` (the address as an immediate).
    """
    from repro.clib.address_space import DATA_BASE
    if data_base is None:
        data_base = DATA_BASE

    instructions: list[Instruction] = []
    labels: dict[str, int] = {}
    pending_labels: list[str] = []
    address = base_address
    data_image = bytearray()
    section = "text"

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == ".data":
            section = "data"
            continue
        if line == ".text":
            section = "text"
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            name = label_match.group(1)
            if name in labels:
                raise AssemblerError(f"line {lineno}: duplicate label {name!r}")
            if section == "data":
                labels[name] = data_base + len(data_image)
            else:
                labels[name] = address
                pending_labels.append(name)
            continue
        if section == "data":
            if line.startswith("."):
                _parse_data_directive(line, data_image, lineno)
                continue
            raise AssemblerError(
                f"line {lineno}: instructions are not allowed in .data")
        if line.startswith("."):
            continue                           # other directives ignored

        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        mnemonic = ALIASES.get(mnemonic, mnemonic)
        if mnemonic not in MNEMONICS:
            raise AssemblerError(f"line {lineno}: unknown mnemonic "
                                 f"{mnemonic!r}")
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = tuple(parse_operand(t)
                         for t in _split_operands(operand_text))
        errors = operand_errors(mnemonic, operands)
        if errors:
            raise AssemblerError(f"line {lineno}: {errors[0][1]}")

        ins = Instruction(mnemonic, operands, address=address,
                          source_line=lineno,
                          label=pending_labels[0] if pending_labels else None)
        pending_labels.clear()
        instructions.append(ins)
        address += INSTRUCTION_SIZE

    if pending_labels:
        # labels at the very end point one past the last instruction
        for name in pending_labels:
            labels[name] = address

    # pass two: resolve label references
    for ins in instructions:
        resolved = []
        for op, role in zip(ins.operands, MNEMONICS[ins.mnemonic].roles):
            if isinstance(op, (LabelRef, LabelImmediate)):
                if op.name not in labels:
                    raise AssemblerError(
                        f"line {ins.source_line}: undefined label "
                        f"{op.name!r}")
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
