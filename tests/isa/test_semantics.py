""":mod:`repro.isa.semantics` agrees with the step-by-step interpreter.

:func:`~repro.isa.semantics.fold` runs the machine's generated
handlers, the code :meth:`Machine.run` executes, so comparing the two
would compare ``fold`` with itself.  The oracle here is
:meth:`Machine.step`: the ``BitVector`` interpreter in
``Machine._execute``, written apart from the code writer.  The jump
predicates are checked against what each condition means after a
``cmpl``, not against another copy of the table.
"""

import functools
import itertools

import pytest

from repro.isa import instructions
from repro.isa.assembler import assemble
from repro.isa.machine import Machine
from repro.isa.semantics import (
    COND_SRC,
    JCC_READS,
    TAKEN,
    flags_written,
    fold,
)

#: operand values at the edges of carry, overflow, sign and width
EDGES = (0, 1, 2, 3, 0xFFFF, 0x10000, 0x7FFF_FFFE, 0x7FFF_FFFF,
         0x8000_0000, 0x8000_0001, 0xFFFF_FFFE, 0xFFFF_FFFF)
ALU_OPS = ("addl", "subl", "cmpl", "andl", "orl", "xorl", "testl", "imull")
UNARY_OPS = ("negl", "incl", "decl", "cltd")
SHIFT_OPS = ("sall", "shrl", "sarl")
SHIFT_COUNTS = (0, 1, 31, 32)
FLAGS = ("zf", "sf", "cf", "of")


@functools.lru_cache(maxsize=None)
def program(text: str):
    return assemble(f"main:\n  {text}\n  halt\ntaken:\n  halt\n")


def forms(op: str):
    """``(assembly, registers before, result register, fold args)``
    for every operand case of ``op``."""
    if op in ALU_OPS:
        for dst, src in itertools.product(EDGES, EDGES):
            yield f"{op} %eax, %ebx", {"ebx": dst, "eax": src}, "ebx", \
                (dst, src)
    elif op in SHIFT_OPS:
        for dst, count in itertools.product(EDGES, SHIFT_COUNTS):
            yield f"{op} ${count}, %ebx", {"ebx": dst}, "ebx", (dst, count)
    elif op == "cltd":
        for dst in EDGES:
            yield "cltd", {"eax": dst}, "edx", (dst,)
    else:
        for dst in EDGES:
            yield f"{op} %ebx", {"ebx": dst}, "ebx", (dst,)


def step(text: str, regs: dict, flags: dict) -> Machine:
    """A machine after one ``step()`` of ``text`` from the given state."""
    machine = Machine(program(text))
    for name, value in regs.items():
        machine.regs.set(name, value)
    vars(machine.regs.flags).update(flags)
    machine.step()
    return machine


@pytest.mark.parametrize("op", ALU_OPS + UNARY_OPS + SHIFT_OPS)
def test_const_folds_match_the_machine(op):
    """``fold`` returns the interpreter's result and exactly the flags
    the effect table says the instruction writes; the others keep
    their value."""
    for text, regs, out, args in forms(op):
        value, written = fold(op, *args)
        assert set(written) == flags_written(program(text).instructions[0])
        for before in (False, True):
            preset = dict.fromkeys(FLAGS, before)
            machine = step(text, regs, preset)
            assert value == machine.regs.get(out), (text, regs)
            assert vars(machine.regs.flags) == {**preset, **written}, \
                (text, regs, before)


def test_jcc_tables_cover_the_machine_conditions():
    assert instructions.JUMPS == {"jmp"} | set(COND_SRC)
    assert set(JCC_READS) == set(TAKEN) == set(COND_SRC)


def _signed(v: int) -> int:
    return v - (1 << 32) if v & 0x8000_0000 else v


#: what each jump means after ``cmpl src, dst``
MEANING = {
    "je": lambda d, s: d == s, "jne": lambda d, s: d != s,
    "jg": lambda d, s: _signed(d) > _signed(s),
    "jge": lambda d, s: _signed(d) >= _signed(s),
    "jl": lambda d, s: _signed(d) < _signed(s),
    "jle": lambda d, s: _signed(d) <= _signed(s),
    "ja": lambda d, s: d > s, "jae": lambda d, s: d >= s,
    "jb": lambda d, s: d < s, "jbe": lambda d, s: d <= s,
    "js": lambda d, s: bool((d - s) & 0x8000_0000),
    "jns": lambda d, s: not (d - s) & 0x8000_0000,
}


@pytest.mark.parametrize("jcc", sorted(COND_SRC))
def test_jcc_taken_matches_the_machine(jcc):
    """After ``cmpl %eax, %ebx`` each jump follows its comparison, in
    the interpreter and in ``TAKEN`` over the folded flags."""
    text = f"cmpl %eax, %ebx\n  {jcc} taken"
    taken_at = program(text).labels["taken"]
    for dst, src in itertools.product(EDGES, EDGES):
        machine = step(text, {"ebx": dst, "eax": src}, {})
        machine.step()
        meant = MEANING[jcc](dst, src)
        assert (machine.regs.eip == taken_at) == meant, (jcc, dst, src)
        assert bool(TAKEN[jcc](fold("cmpl", dst, src)[1])) == meant


def _all_flags():
    for bits in itertools.product((False, True), repeat=4):
        yield dict(zip(FLAGS, bits))


@pytest.mark.parametrize("jcc", sorted(COND_SRC))
def test_jcc_reads_exactly_the_flags_the_machine_tests(jcc):
    """Flipping a flag outside JCC_READS never changes the decision,
    and flipping each flag inside it sometimes does."""
    decides = set()
    for flags in _all_flags():
        taken = TAKEN[jcc](flags)
        for f in FLAGS:
            flipped = dict(flags, **{f: not flags[f]})
            if TAKEN[jcc](flipped) != taken:
                decides.add(f)
    assert decides == set(JCC_READS[jcc])
