"""The optimizer rewrites programs without changing what they compute.

Each pass is exercised on a program shape it targets; then
:func:`optimize_program` runs whole examples and the final machine
state is compared instruction-for-instruction against the unoptimized
run.  The translation validator is tested both ways: it accepts every
pipeline rewrite, and a deliberately broken pass — one that changes a
constant — must be rejected and reverted.
"""

from pathlib import Path

import pytest

from repro.analysis.opt import (
    OptBlock,
    extract_blocks,
    fold_constants,
    local_values,
    eliminate_dead,
    thread_jumps,
    optimize_program,
    stack_ranges,
    OptContext,
    block_index_map,
    stack_safe_addresses,
)
from repro.analysis.verify import validate_blocks
from repro.isa.assembler import assemble
from repro.isa.instructions import Immediate, Register
from repro.isa.machine import Machine
from repro.system.runner import program_from_source, run_system

REPO = Path(__file__).resolve().parent.parent.parent
EXAMPLES = sorted((REPO / "examples" / "c").glob("*.c"),
                  key=lambda p: p.name)


def run_flat(program):
    machine = Machine(program)
    status = machine.run()
    flags = machine.regs.flags
    return (status, machine.steps, machine.regs.snapshot(),
            (flags.zf, flags.sf, flags.cf, flags.of))


def ctx_for(blocks, entry=0):
    at, entry_env = stack_ranges(blocks, entry)
    return OptContext(at, entry_env, entry, block_index_map(blocks))


class TestPasses:
    def test_fold_constants_resolves_constant_branch(self):
        src = ("main:\n"
               "  movl $3, %eax\n"
               "  cmpl $3, %eax\n"
               "  je yes\n"
               "  movl $0, %eax\n"
               "yes:\n"
               "  ret\n")
        blocks, bail = extract_blocks(assemble(src))
        assert bail is None
        new, n = fold_constants(blocks, ctx_for(blocks))
        assert n > 0
        mnems = [i.mnemonic for b in new for i in b.instrs]
        assert "je" not in mnems and "jmp" in mnems

    def test_local_values_forwards_store_to_load(self):
        # LVN only trusts a slot it can bound, so use the standard
        # prologue the compiler emits (ebp = entry esp - 4)
        src = ("main:\n"
               "  pushl %ebp\n"
               "  movl %esp, %ebp\n"
               "  subl $8, %esp\n"
               "  movl %eax, -4(%ebp)\n"
               "  movl -4(%ebp), %ebx\n"
               "  leave\n"
               "  ret\n")
        blocks, _ = extract_blocks(assemble(src))
        new, n = local_values(blocks, ctx_for(blocks))
        assert n > 0
        load = new[0].instrs[4]
        # the load became a register copy
        assert load.mnemonic == "movl"
        assert isinstance(load.operands[0], Register)
        assert load.operands[0].name == "eax"

    def test_eliminate_dead_drops_unread_write(self):
        src = ("main:\n"
               "  movl $7, %ecx\n"
               "  movl $1, %eax\n"
               "  movl $2, %ecx\n"
               "  jmp out\n"
               "out:\n"
               "  movl $3, %ecx\n"
               "  ret\n")
        blocks, _ = extract_blocks(assemble(src))
        new, n = eliminate_dead(blocks, ctx_for(blocks))
        assert n >= 1
        consts = [i.operands[0].value for b in new for i in b.instrs
                  if i.mnemonic == "movl"
                  and isinstance(i.operands[0], Immediate)]
        assert 7 not in consts          # overwritten before any read

    def test_thread_jumps_removes_jump_to_next(self):
        src = ("main:\n"
               "  jmp next\n"
               "next:\n"
               "  ret\n")
        blocks, _ = extract_blocks(assemble(src))
        new, n = thread_jumps(blocks, ctx_for(blocks))
        assert n >= 1
        assert all(i.mnemonic != "jmp" for b in new for i in b.instrs)


class TestOptimizeProgram:
    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_examples_state_identical_and_faster(self, path):
        program = program_from_source(path.read_text())
        result = optimize_program(program_from_source(path.read_text()))
        s0, steps0, regs0, flags0 = run_flat(program)
        s1, steps1, regs1, flags1 = run_flat(result.program)
        assert (s1, regs1, flags1) == (s0, regs0, flags0)
        assert steps1 <= steps0
        assert result.static_after <= result.static_before

    def test_loop_heavy_example_meets_ten_percent(self):
        src = (REPO / "examples" / "c" / "nested_sum.c").read_text()
        program = program_from_source(src)
        result = optimize_program(program_from_source(src))
        _, steps0, *_ = run_flat(program)
        _, steps1, *_ = run_flat(result.program)
        assert steps1 <= steps0 * 0.9

    def test_stack_safe_stamped(self):
        src = (REPO / "examples" / "c" / "sum.c").read_text()
        result = optimize_program(program_from_source(src))
        assert result.program.stack_safe
        assert result.proved_safe == len(result.program.stack_safe)
        by_address = result.program.by_address
        assert all(a in by_address for a in result.program.stack_safe)

    def test_stack_safe_addresses_on_unoptimized_program(self):
        src = (REPO / "examples" / "c" / "sum.c").read_text()
        safe = stack_safe_addresses(program_from_source(src))
        assert safe


class TestValidator:
    def test_pipeline_rewrites_accepted(self):
        src = (REPO / "examples" / "c" / "sum.c").read_text()
        result = optimize_program(program_from_source(src))
        assert result.rejections == []
        assert result.pass_stats and any(result.pass_stats.values())

    def test_broken_pass_rejected_and_reverted(self):
        # a "pass" that bumps the first constant it sees in each block
        # changes observable state; every touched block must be
        # rejected and the program must still behave like the original
        def broken(blocks, ctx):
            out, n = [], 0
            for b in blocks:
                nb = b.copy()
                for j, ins in enumerate(nb.instrs):
                    if (ins.mnemonic == "movl"
                            and isinstance(ins.operands[0], Immediate)
                            and isinstance(ins.operands[1], Register)):
                        bumped = Immediate(ins.operands[0].value + 1)
                        patched = type(ins)(
                            ins.mnemonic, (bumped, ins.operands[1]),
                            ins.address, ins.source_line, ins.label)
                        nb.instrs = (nb.instrs[:j] + [patched]
                                     + nb.instrs[j + 1:])
                        n += 1
                        break
                out.append(nb)
            return out, n

        broken.__name__ = "broken"
        src = (REPO / "examples" / "c" / "sum.c").read_text()
        program = program_from_source(src)
        result = optimize_program(program_from_source(src),
                                  passes=[broken], rounds=1)
        assert result.rejections
        assert all(r.pass_name == "broken" for r in result.rejections)
        assert run_flat(result.program) == run_flat(program)

    def test_broken_pass_reusing_accepted_blocks_rejected(self):
        # fold_constants' rewrites are validated at their own index, and
        # each new block keeps its accepted symbolic run; a "pass" that
        # rotates those very block objects to other unlabelled indices
        # must see every move that changes the code rejected
        moved = {}

        def rotate(blocks, ctx):
            spots = [i for i, b in enumerate(blocks)
                     if not b.labels and b.sym is not None]
            out = list(blocks)
            for i, j in zip(spots, spots[1:] + spots[:1]):
                out[i] = blocks[j]
                if [str(x) for x in blocks[i].instrs] != \
                        [str(x) for x in blocks[j].instrs]:
                    moved[i] = j
            return out, len(spots)

        src = (REPO / "examples" / "c" / "sum.c").read_text()
        program = program_from_source(src)
        result = optimize_program(program_from_source(src),
                                  passes=[fold_constants, rotate], rounds=1)
        assert len(moved) >= 2
        assert {r.block for r in result.rejections} == set(moved)
        assert all(r.pass_name == "rotate" for r in result.rejections)
        (s0, _, regs0, flags0), (s1, _, regs1, flags1) = \
            run_flat(program), run_flat(result.program)
        regs0.pop("eip")
        regs1.pop("eip")
        assert (s1, regs1, flags1) == (s0, regs0, flags0)

    @pytest.mark.parametrize("resize", [
        lambda blocks: blocks[:-1],
        lambda blocks: blocks + [blocks[-1].copy()],
        lambda blocks: [blocks[-1].copy()] + blocks,
    ], ids=["drops-a-block", "appends-a-block", "prepends-a-block"])
    def test_pass_changing_block_count_rejected_whole(self, resize):
        def resizing(blocks, ctx):
            return resize(blocks), 1

        program = program_from_source(
            (REPO / "examples" / "c" / "sum.c").read_text())
        result = optimize_program(program, passes=[resizing], rounds=2)
        assert [str(i) for i in result.program.instructions] == \
            [str(i) for i in program.instructions]
        assert [r.reason for r in result.rejections] == \
            ["block count changed"] * 2

    def test_validate_blocks_flags_changed_semantics(self):
        src = ("main:\n"
               "  movl $1, %eax\n"
               "  ret\n")
        blocks, _ = extract_blocks(assemble(src))
        bad = [OptBlock(list(b.labels),
                        [type(i)("movl", (Immediate(2), Register("eax")),
                                 i.address, i.source_line, i.label)
                         if i.mnemonic == "movl" else i
                         for i in b.instrs],
                        b.frozen) for b in blocks]
        rejs = validate_blocks(blocks, bad, entry_index=0)
        assert rejs and rejs[0].block == 0

    def test_validate_blocks_accepts_identity(self):
        src = (REPO / "examples" / "c" / "search.c").read_text()
        blocks, _ = extract_blocks(program_from_source(src))
        assert validate_blocks(blocks, [b.copy() for b in blocks],
                               entry_index=0) == []


class TestOptUnderJit:
    def test_opt_plus_jit_counters_match_interpreter(self):
        src = (REPO / "examples" / "c" / "sum.c").read_text()
        result = optimize_program(program_from_source(src))
        r_int = run_system(result.program, jit=False)
        r_jit = run_system(result.program, jit=True)
        assert r_int.counters() == r_jit.counters()
        assert r_int.exit_statuses == r_jit.exit_statuses
        assert r_jit.jit and r_jit.jit["guards_elided"] > 0

    def test_run_system_opt_flag(self):
        src = (REPO / "examples" / "c" / "sum.c").read_text()
        plain = run_system(src, jit=False)
        opted = run_system(src, jit=False, opt=True)
        assert opted.exit_statuses == plain.exit_statuses
        assert opted.instructions < plain.instructions
        assert opted.opt and "instructions" in opted.opt["summary"]
        assert plain.opt is None


class TestSubRegisters:
    """A sub-register is a slice of its parent: reading %ax reads
    %eax, and writing it keeps the rest of %eax. Compiled C never
    emits them, so these hand-written programs are their only cover."""

    def assert_same_final_state(self, src):
        program = assemble(src)
        result = optimize_program(assemble(src))
        s0, _, regs0, flags0 = run_flat(program)
        s1, _, regs1, flags1 = run_flat(result.program)
        regs0.pop("eip")
        regs1.pop("eip")
        assert (s1, regs1, flags1) == (s0, regs0, flags0)
        return result

    def test_sub_register_read_keeps_its_parent_live(self):
        # eax's 0x12345 reaches `addl %ax, %ebx` in the next block
        result = self.assert_same_final_state(
            "main:\n"
            "  movl $0x12345, %eax\n"
            "  movl $7, %ebx\n"
            "  jmp next\n"
            "next:\n"
            "  addl %ax, %ebx\n"
            "  movl %ebx, %eax\n"
            "  movl $0, %ecx\n"
            "  movl $0, %edx\n"
            "  halt\n")
        kept = [str(i) for i in result.program.instructions]
        assert "movl $74565, %eax" in kept

    @pytest.mark.parametrize("op", ["movl $1, %ax", "addl $1, %ax",
                                    "movl $1, %al", "addl $1, %ah"])
    def test_sub_register_write_in_a_32_bit_op(self, op):
        result = self.assert_same_final_state(
            "main:\n"
            "  movl $0x10000, %eax\n"
            f"  {op}\n"
            "  movl %eax, %ebx\n"
            "  movl $0, %eax\n"
            "  halt\n")
        assert result.bailed is None

    def test_threading_a_frozen_blocks_jump_is_checked_not_crashed(self):
        # jump threading leaves `jmp a` in the frozen block as written:
        # the validator cannot model %ax, so a retarget would only be
        # rejected
        result = self.assert_same_final_state(
            "main:\n"
            "  movl $5, %ebx\n"
            "  addl %ax, %ebx\n"
            "  jmp a\n"
            "a:\n"
            "  jmp b\n"
            "b:\n"
            "  halt\n")
        assert result.rejections == []
        assert "jmp a" in [str(i) for i in result.program.instructions]

    def test_blocks_with_sub_register_operands_are_frozen(self):
        blocks, _ = extract_blocks(assemble(
            "main:\n"
            "  movl $1, %ebx\n"
            "  jmp next\n"
            "next:\n"
            "  movl $1, %bx\n"
            "  halt\n"))
        assert [b.frozen for b in blocks] == [False, True]
