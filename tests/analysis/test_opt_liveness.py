"""The bitset liveness equals the per-instruction frozenset definition.

:func:`repro.analysis.opt.asm_liveness` folds each block into one
``gen``/``kill`` bitmask pair before its fixpoint, and the optimizer
shares one result between dead-code elimination and the validator.
:func:`reference_liveness` below is the transfer it replaced, kept
here only as the definition to compare with: one frozenset per
instruction, straight from the effect tables.
"""

import pytest

from repro.analysis.opt import (
    BIT,
    PIPELINE,
    asm_liveness,
    block_index_map,
    block_succs,
    extract_blocks,
    optimize_program,
)
from repro.isa.assembler import assemble
from repro.isa.instructions import CALLS
from repro.isa.semantics import (
    FLAG_NAMES,
    GP,
    flags_read,
    flags_written,
    regs_read,
    regs_written,
)
from repro.system.runner import program_from_source
from tests.analysis.test_opt_golden import CORPUS


def reference_liveness(blocks) -> list[frozenset]:
    labels = block_index_map(blocks)
    n = len(blocks)
    everything = frozenset(GP) | frozenset(FLAG_NAMES)
    live_in = [frozenset()] * n
    live_out = [frozenset()] * n
    rows = [[(regs_written(ins) | flags_written(ins),
              regs_read(ins) | flags_read(ins)) for ins in b.instrs]
            for b in blocks]

    def transfer(i, live):
        for written, read in reversed(rows[i]):
            live = frozenset((live - written) | read)
        return live

    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            succs = block_succs(blocks, i, labels)
            last = blocks[i].instrs[-1] if blocks[i].instrs else None
            if not succs or (last is not None and last.mnemonic in CALLS):
                lo = everything
            else:
                lo = frozenset().union(*(live_in[s] for s in succs))
            li = transfer(i, lo)
            if lo != live_out[i] or li != live_in[i]:
                live_out[i], live_in[i] = lo, li
                changed = True
    return live_out


def names(mask: int) -> frozenset:
    return frozenset(n for n, bit in BIT.items() if mask & bit)


def checked(passfn, seen: list):
    """``passfn`` that first checks, on its input, the liveness masks
    that the pass and the validator share."""
    def run(blocks, ctx):
        expected = reference_liveness(blocks)
        assert [names(m) for m in ctx.live_out(blocks)] == expected
        seen.append(len(blocks))
        return passfn(blocks, ctx)
    run.__name__ = passfn.__name__
    return run


def final_check(blocks, ctx):
    """A last no-op pass: the pipeline's output is a boundary too, and
    here the public :func:`asm_liveness` is checked as well."""
    assert asm_liveness(blocks) == reference_liveness(blocks)
    return [b.copy() for b in blocks], 0


@pytest.mark.parametrize("key", list(CORPUS))
def test_liveness_matches_reference_at_every_pass_boundary(key):
    seen: list = []
    passes = [checked(p, seen) for p in PIPELINE * 2] + [final_check]
    result = optimize_program(program_from_source(CORPUS[key]),
                              passes=passes, rounds=1)
    assert result.bailed is None
    assert len(seen) == 2 * len(PIPELINE)


HAND_BUILT = {
    "call-ret": (
        "main:\n"
        "  movl $1, %eax\n"
        "  call f\n"
        "  addl %eax, %ebx\n"
        "  halt\n"
        "f:\n"
        "  movl $2, %ecx\n"
        "  ret\n"),
    "halt-mid-text": (
        "main:\n"
        "  movl $1, %edx\n"
        "  cmpl $0, %edx\n"
        "  je done\n"
        "  movl $3, %esi\n"
        "  halt\n"
        "done:\n"
        "  movl %esi, %eax\n"
        "  halt\n"),
    "register-count-shift": (
        "main:\n"
        "  movl $3, %ecx\n"
        "  movl $40, %eax\n"
        "  cmpl $1, %ecx\n"
        "  sarl %cl, %eax\n"
        "  jl out\n"
        "  sall %cl, %edx\n"
        "out:\n"
        "  halt\n"),
    "sub-registers": (
        "main:\n"
        "  movl $0x12345, %eax\n"
        "  movl $7, %ebx\n"
        "  movl $9, %edx\n"
        "  jmp next\n"
        "next:\n"
        "  addl %ax, %ebx\n"
        "  movb %bl, %ch\n"
        "  movl $1, %dx\n"
        "  movl $0, %edx\n"
        "  movl %ebx, %eax\n"
        "  halt\n"),
    "flags-across-blocks": (
        "main:\n"
        "  cmpl $1, %eax\n"
        "  jmp next\n"
        "next:\n"
        "  jle done\n"
        "  testl %ebx, %ebx\n"
        "  halt\n"
        "done:\n"
        "  testl %ecx, %ecx\n"
        "  halt\n"),
    "loop-with-push-pop": (
        "main:\n"
        "  movl $4, %ecx\n"
        "top:\n"
        "  pushl %ecx\n"
        "  popl %edx\n"
        "  decl %ecx\n"
        "  jne top\n"
        "  leave\n"
        "  ret\n"),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_liveness_matches_reference_on_hand_built_blocks(name):
    blocks, bail = extract_blocks(assemble(HAND_BUILT[name]))
    assert bail is None
    assert asm_liveness(blocks) == reference_liveness(blocks)


def test_sub_register_operands_stand_for_their_parents():
    blocks, _ = extract_blocks(assemble(HAND_BUILT["sub-registers"]))
    live = asm_liveness(blocks)
    assert "eax" in live[0]             # `addl %ax` reads it
    # `movl $1, %dx` keeps the upper half of %edx, so it reads %edx
    # although `movl $0, %edx` kills it right after
    assert "edx" in live[0]


def test_flags_read_by_a_later_block_are_live():
    blocks, _ = extract_blocks(assemble(HAND_BUILT["flags-across-blocks"]))
    live = asm_liveness(blocks)[0]
    assert {"zf", "sf", "of"} <= live     # `jle` reads them
    assert "cf" not in live               # both paths overwrite it
