"""The optimizer's concrete ISA tables agree with the machine.

:mod:`repro.analysis.verify` imports ``_const_flags`` and ``JCC_TAKEN``
from the optimizer it checks, so a wrong entry there would be accepted
by validation whenever both operands are constant. These tests close
that gap from outside: every table entry is compared with what
:class:`~repro.isa.machine.Machine` itself computes.
"""

import itertools

import pytest

from repro.analysis.opt import JCC_READS, JCC_TAKEN, _const_alu, _const_flags
from repro.isa.assembler import assemble
from repro.isa.machine import _JUMP_CONDITIONS, Machine
from repro.isa.registers import Flags

#: operand values at the edges of carry, overflow, sign and width
EDGES = (0, 1, 2, 3, 0xFFFF, 0x10000, 0x7FFF_FFFE, 0x7FFF_FFFF,
         0x8000_0000, 0x8000_0001, 0xFFFF_FFFE, 0xFFFF_FFFF)
ALU_OPS = ("addl", "subl", "cmpl", "andl", "orl", "xorl", "testl", "imull")
FLAGS = ("zf", "sf", "cf", "of")


def machine_result(op: str, dst: int, src: int) -> tuple[int, dict]:
    """%ebx and the flags after ``<op> %eax, %ebx`` with ebx=dst, eax=src."""
    machine = Machine(assemble(
        "main:\n"
        f"  movl ${dst}, %ebx\n"
        f"  movl ${src}, %eax\n"
        f"  {op} %eax, %ebx\n"
        "  halt\n"))
    machine.run()
    flags = machine.regs.flags
    return machine.regs.get("ebx"), {f: getattr(flags, f) for f in FLAGS}


@pytest.mark.parametrize("op", ALU_OPS)
def test_const_folds_match_the_machine(op):
    for dst, src in itertools.product(EDGES, EDGES):
        ebx, flags = machine_result(op, dst, src)
        assert _const_flags(op, dst, src) == flags, (op, dst, src)
        alu = _const_alu(op, dst, src)
        # cmpl and testl only set flags: the table has no value for them
        assert (dst if alu is None else alu) == ebx, (op, dst, src)
        assert (alu is None) == (op in ("cmpl", "testl"))


def _all_flags():
    for bits in itertools.product((False, True), repeat=4):
        yield dict(zip(FLAGS, bits))


def test_jcc_tables_cover_the_machine_conditions():
    assert set(JCC_TAKEN) == set(JCC_READS) == set(_JUMP_CONDITIONS)


@pytest.mark.parametrize("jcc", sorted(_JUMP_CONDITIONS))
def test_jcc_taken_matches_the_machine(jcc):
    for flags in _all_flags():
        assert bool(JCC_TAKEN[jcc](flags)) == \
            bool(_JUMP_CONDITIONS[jcc](Flags(**flags))), (jcc, flags)


@pytest.mark.parametrize("jcc", sorted(_JUMP_CONDITIONS))
def test_jcc_reads_exactly_the_flags_the_machine_tests(jcc):
    """Flipping a flag outside JCC_READS never changes the machine's
    decision, and flipping each flag inside it sometimes does."""
    decides = set()
    for flags in _all_flags():
        taken = _JUMP_CONDITIONS[jcc](Flags(**flags))
        for f in FLAGS:
            flipped = dict(flags, **{f: not flags[f]})
            if _JUMP_CONDITIONS[jcc](Flags(**flipped)) != taken:
                decides.add(f)
    assert decides == set(JCC_READS[jcc])
