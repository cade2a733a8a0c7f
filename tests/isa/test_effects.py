"""The effect functions of :mod:`repro.isa.semantics` agree with the machine.

Every mnemonic × operand-kind form the assembler accepts runs through
one :meth:`Machine.step`, the ``BitVector`` interpreter, under two flag
presets (all clear, all set).  For each form:

* registers outside ``regs_written`` keep their value;
* flags outside ``flags_may_written`` keep their value, and flags in
  ``flags_written`` come out the same under both presets;
* perturbing a register outside ``regs_read`` changes no written
  register, flag, memory byte or ``%eip``;
* a store happens only if ``has_mem_write``, a load only if
  ``has_mem_read``.

A form that faults at run time (a byte op on a 32-bit register,
``movzbl`` to memory) has no effects to compare and is skipped.
"""

import functools
import itertools

import pytest

from repro.clib.address_space import STACK_TOP, AddressSpace
from repro.errors import AssemblerError, CMemoryError, IsaError
from repro.isa.assembler import assemble
from repro.isa.instructions import ALL_MNEMONICS
from repro.isa.machine import Machine
from repro.isa.semantics import (
    FLAG_NAMES,
    GP,
    flags_may_written,
    flags_written,
    has_mem_read,
    has_mem_write,
    regs_read,
    regs_written,
)

#: operand kinds, spelled per position so source and destination
#: never name the same register
KINDS = {
    "r32": ("%ecx", "%ebx"),
    "r16": ("%cx", "%bx"),
    "r8": ("%cl", "%bl"),
    "r8h": ("%ch", "%bh"),
    "imm": ("$7", "$7"),
    "mem": ("4(%esi,%edi,2)", "-8(%esi)"),
    "label": ("data", "data"),
    "$label": ("$data", "$data"),
}

FRAME = STACK_TOP - 0x400
#: register values before the step: addresses in the stack for the
#: ones an address is built from, distinct patterns elsewhere
START = {"eax": 0x8000_0123, "ebx": 0x0000_5A81, "ecx": 0x0810_0000,
         "edx": 0xFFFF_FFF3, "esi": FRAME, "edi": 0x10,
         "ebp": FRAME + 0x40, "esp": FRAME - 0x40}
#: xored into one register at a time
PERTURB = 0x0101_0104
#: the stack around FRAME before the step: a distinct word every 4 bytes
FILL = b"".join((0x1111_1111 * (k % 13 + 1) & 0xFFFF_FFFF)
                .to_bytes(4, "little") for k in range(0x200))


def _source(mnemonic: str, kinds: tuple[str, ...]) -> str:
    ops = ", ".join(KINDS[k][i] for i, k in enumerate(kinds))
    return (f".data\ndata:\n  .long 0x12345678\n.text\n"
            f"main:\n  {mnemonic} {ops}\n  halt\n")


@functools.lru_cache(maxsize=None)
def accepted_forms() -> list[tuple[str, tuple[str, ...]]]:
    forms = []
    for mnemonic in sorted(ALL_MNEMONICS):
        for arity in range(3):
            for kinds in itertools.product(KINDS, repeat=arity):
                try:
                    assemble(_source(mnemonic, kinds))
                except AssemblerError:
                    continue
                forms.append((mnemonic, kinds))
    return forms


def _run(program, flag: bool, regs: dict):
    """One step from ``regs`` with every flag set to ``flag``: the
    final registers, flags, memory image, %eip and access kinds, or
    None if the step faults."""
    space = AddressSpace.standard(text_size=0x100, data_size=0x100,
                                  heap_size=0x100, stack_size=0x1000,
                                  trace=True)
    m = Machine(program, space)
    for name, value in regs.items():
        m.regs.set(name, value)
    space.write(FRAME - 0x400, FILL)
    for f in FLAG_NAMES:
        setattr(m.regs.flags, f, flag)
    space.clear_trace()
    stack = space.region_named("stack")
    try:
        ins = m.step()
    except (IsaError, CMemoryError):
        return None
    return (ins, {r: m.regs.get(r) for r in GP},
            {f: getattr(m.regs.flags, f) for f in FLAG_NAMES},
            bytes(stack.data) + bytes(space.region_named("data").data),
            m.regs.eip, {a.kind for a in space.trace})


@pytest.mark.parametrize("mnemonic", sorted(ALL_MNEMONICS))
def test_effects_match_one_step(mnemonic):
    forms = [kinds for m, kinds in accepted_forms() if m == mnemonic]
    assert forms, f"the assembler accepts no form of {mnemonic}"
    checked = 0
    for kinds in forms:
        program = assemble(_source(mnemonic, kinds))
        base = {flag: _run(program, flag, START) for flag in (False, True)}
        if None in base.values():
            continue
        ins = base[False][0]
        what = f"{ins} ({', '.join(kinds)})"
        read, written = regs_read(ins), regs_written(ins)
        must, may = flags_written(ins), flags_may_written(ins)
        assert must <= may, what
        for flag, (_, regs, flags, _, _, accesses) in base.items():
            for r in set(GP) - written:
                assert regs[r] == START[r], f"{what} wrote %{r}"
            for f in set(FLAG_NAMES) - may:
                assert flags[f] == flag, f"{what} wrote {f}"
            assert "store" not in accesses or has_mem_write(ins), \
                f"{what} stored to memory"
            assert "load" not in accesses or has_mem_read(ins), \
                f"{what} loaded from memory"
        for f in must:
            assert base[False][2][f] == base[True][2][f], \
                f"{what} did not overwrite {f}"
        for r in set(GP) - read:
            for flag in (False, True):
                moved = _run(program, flag,
                             {**START, r: START[r] ^ PERTURB})
                _, regs, flags, memory, eip, _ = base[flag]
                assert moved is not None, f"{what} faults on %{r}"
                assert {w: moved[1][w] for w in written} == \
                    {w: regs[w] for w in written}, f"{what} reads %{r}"
                assert moved[2:5] == (flags, memory, eip), \
                    f"{what} reads %{r}"
        checked += 1
    assert checked, f"every accepted form of {mnemonic} faults"
