"""Unit tests for the assembler lint."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.asmlint import lint_asm
from repro.errors import AssemblerError
from repro.isa import assemble, instructions


def kinds(findings):
    return {f.kind for f in findings}


def lines_of(findings, kind):
    return sorted(f.line for f in findings if f.kind == kind)


CLEAN = """\
.text
main:
    movl $5, %eax
    addl $1, %eax
    cmpl $6, %eax
    je done
    movl $0, %eax
done:
    ret
"""


class TestCleanSource:
    def test_clean_program_no_findings(self):
        assert lint_asm(CLEAN) == []

    def test_lint_agrees_with_assembler(self):
        """What the lint passes, the real assembler accepts."""
        assert lint_asm(CLEAN) == []
        assemble(CLEAN)        # must not raise

    def test_comments_and_blanks_ignored(self):
        src = "# header\n\n.text\nmain:\n    ret  # done\n"
        assert lint_asm(src) == []


class TestLabels:
    def test_undefined_label(self):
        src = ".text\nmain:\n    jmp nowhere\n"
        fs = lint_asm(src)
        assert lines_of(fs, "asm-undefined-label") == [3]

    def test_duplicate_label(self):
        src = ".text\nmain:\n    ret\nmain:\n    ret\n"
        fs = lint_asm(src)
        assert lines_of(fs, "asm-duplicate-label") == [4]
        assert "already defined on line 2" in fs[0].message


class TestReachability:
    def test_code_after_jmp_flagged_once_per_region(self):
        src = (".text\n"          # 1
               "main:\n"          # 2
               "    jmp out\n"    # 3
               "    movl $1, %eax\n"   # 4 unreachable (reported)
               "    movl $2, %eax\n"   # 5 same region (not reported)
               "out:\n"           # 6
               "    ret\n")       # 7
        fs = lint_asm(src)
        assert lines_of(fs, "asm-unreachable") == [4]

    def test_label_restores_reachability(self):
        src = ".text\nmain:\n    ret\nagain:\n    ret\n"
        assert lint_asm(src) == []

    def test_code_after_ret_flagged(self):
        src = ".text\nmain:\n    ret\n    movl $1, %eax\n"
        fs = lint_asm(src)
        assert lines_of(fs, "asm-unreachable") == [4]


class TestInstructionChecks:
    def test_unknown_mnemonic(self):
        fs = lint_asm(".text\nmain:\n    frobl %eax\n")
        assert lines_of(fs, "asm-unknown-mnemonic") == [3]

    def test_arity_error(self):
        fs = lint_asm(".text\nmain:\n    addl %eax\n    ret\n")
        assert lines_of(fs, "asm-arity") == [3]

    def test_immediate_destination(self):
        fs = lint_asm(".text\nmain:\n    movl %eax, $5\n    ret\n")
        assert lines_of(fs, "asm-immediate-dest") == [3]

    def test_two_memory_operands(self):
        """What the assembler rejects as two memory operands, the lint
        reports; one memory operand is fine."""
        for src in (".text\nmain:\n    andl (%eax), (%ebx)\n    ret\n",
                    ".data\ncount:\n    .long 0\n.text\nmain:\n"
                    "    movl count, 4(%ebp)\n    ret\n"):
            fs = lint_asm(src)
            assert [f.kind for f in fs] == ["asm-two-memory"]
            assert fs[0].severity == "error"
            with pytest.raises(AssemblerError, match="two memory"):
                assemble(src)
        src = ".text\nmain:\n    movl (%eax), %ebx\n    ret\n"
        assert lint_asm(src) == []
        assemble(src)

    def test_cmpl_immediate_second_operand_ok(self):
        # cmpl only reads both operands; $imm second is the course idiom
        assert lint_asm(".text\nmain:\n    cmpl %eax, $5\n    ret\n") == []

    def test_syntax_error_operand(self):
        fs = lint_asm(".text\nmain:\n    movl %%%, %eax\n    ret\n")
        assert lines_of(fs, "asm-syntax") == [3]

    def test_multiple_findings_all_reported(self):
        src = (".text\n"
               "main:\n"
               "    frobl %eax\n"
               "    jmp missing\n"
               "    movl $1, %eax\n")
        fs = lint_asm(src)
        ks = kinds(fs)
        assert {"asm-unknown-mnemonic", "asm-undefined-label",
                "asm-unreachable"} <= ks


class TestDataSection:
    def test_data_directives_skipped(self):
        src = ".data\nvalue:\n    .long 42\n.text\nmain:\n    ret\n"
        assert lint_asm(src) == []

    def test_instruction_in_data_is_an_error(self):
        src = ".data\nx:\n  movl $1, %eax\n"
        fs = lint_asm(src)
        assert lines_of(fs, "asm-instruction-in-data") == [3]
        assert {f.severity for f in fs} == {"error"}
        with pytest.raises(AssemblerError, match="not allowed in .data"):
            assemble(src)

    def test_data_directive_in_text_is_an_error(self):
        src = ".text\nmain:\n  .long 5\n  ret\n"
        fs = lint_asm(src)
        assert lines_of(fs, "asm-data-in-text") == [3]
        assert {f.severity for f in fs} == {"error"}
        with pytest.raises(AssemblerError, match="only allowed in .data"):
            assemble(src)


class TestSelfMove:
    def test_register_self_move_flagged(self):
        fs = lint_asm(".text\nmain:\n    movl %eax, %eax\n    ret\n")
        assert lines_of(fs, "asm-self-move") == [3]

    def test_distinct_registers_clean(self):
        assert lint_asm(".text\nmain:\n    movl %eax, %ebx\n    ret\n") == []

    def test_memory_roundtrip_not_a_self_move(self):
        # same *location* through memory is covered by asm-dead-store,
        # not the register rule
        src = ".text\nmain:\n    movl -4(%ebp), %eax\n    ret\n"
        assert lines_of(lint_asm(src), "asm-self-move") == []


class TestDeadStore:
    def test_store_then_overwrite_flagged_at_first_store(self):
        src = (".text\nmain:\n"
               "    movl $1, -4(%ebp)\n"
               "    movl $2, -4(%ebp)\n"
               "    ret\n")
        assert lines_of(lint_asm(src), "asm-dead-store") == [3]

    def test_intervening_read_keeps_store(self):
        src = (".text\nmain:\n"
               "    movl $1, -4(%ebp)\n"
               "    movl -4(%ebp), %eax\n"
               "    movl $2, -4(%ebp)\n"
               "    ret\n")
        assert lines_of(lint_asm(src), "asm-dead-store") == []

    def test_any_memory_read_clears_tracking(self):
        # aliasing is out of scope: a read of *any* location intervenes
        src = (".text\nmain:\n"
               "    movl $1, -4(%ebp)\n"
               "    movl -8(%ebp), %eax\n"
               "    movl $2, -4(%ebp)\n"
               "    ret\n")
        assert lines_of(lint_asm(src), "asm-dead-store") == []

    def test_label_boundary_clears_tracking(self):
        src = (".text\nmain:\n"
               "    movl $1, -4(%ebp)\n"
               "loop:\n"
               "    movl $2, -4(%ebp)\n"
               "    ret\n")
        assert lines_of(lint_asm(src), "asm-dead-store") == []

    def test_base_register_write_clears_tracking(self):
        src = (".text\nmain:\n"
               "    movl $1, -4(%ebp)\n"
               "    movl %esp, %ebp\n"
               "    movl $2, -4(%ebp)\n"
               "    ret\n")
        assert lines_of(lint_asm(src), "asm-dead-store") == []

    def test_different_displacements_both_kept(self):
        src = (".text\nmain:\n"
               "    movl $1, -4(%ebp)\n"
               "    movl $2, -8(%ebp)\n"
               "    ret\n")
        assert lines_of(lint_asm(src), "asm-dead-store") == []

    def test_mixed_width_overwrite_not_flagged(self):
        src = (".text\nmain:\n"
               "    movl $1, -4(%ebp)\n"
               "    movb $2, -4(%ebp)\n"
               "    ret\n")
        assert lines_of(lint_asm(src), "asm-dead-store") == []

    def test_call_clears_tracking(self):
        src = (".text\nf:\n    ret\nmain:\n"
               "    movl $1, -4(%ebp)\n"
               "    call f\n"
               "    movl $2, -4(%ebp)\n"
               "    ret\n")
        assert lines_of(lint_asm(src), "asm-dead-store") == []

    def test_sub_register_write_clears_tracking(self):
        # %bl is a slice of %ebx, the store's base register
        src = (".text\nmain:\n"
               "    movl $1, (%ebx)\n"
               "    movb $0, %bl\n"
               "    movl $2, (%ebx)\n"
               "    ret\n")
        assert lines_of(lint_asm(src), "asm-dead-store") == []

    def test_data_label_read_clears_tracking(self):
        # a bare data label is the memory load the assembler makes of it
        src = (".data\ncount:\n    .long 0\n.text\nmain:\n"
               "    movl $1, (%ebx)\n"
               "    movl count, %eax\n"
               "    movl $2, (%ebx)\n"
               "    ret\n")
        assert lines_of(lint_asm(src), "asm-dead-store") == []


#: one operand of each kind, spelled per position
OPERANDS = ("%ecx", "%cl", "%cx", "$7", "(%esi)", "data", "$data", "main",
            "nowhere")


class TestAgreesWithAssembler:
    @pytest.mark.parametrize("src", [
        "    incl $3\n", "    popl $3\n", "    movl %eax, $data\n"])
    def test_immediate_written_is_rejected(self, src):
        src = f".data\ndata:\n    .long 0\n.text\nmain:\n{src}"
        assert kinds(lint_asm(src)) == {"asm-immediate-dest"}
        with pytest.raises(AssemblerError, match="cannot be an immediate"):
            assemble(src)

    @pytest.mark.parametrize("src", [
        "    leal %ecx, %eax\n", "    leal $3, %eax\n",
        "    leal $data, %eax\n"])
    def test_leal_needs_a_memory_source(self, src):
        src = f".data\ndata:\n    .long 0\n.text\nmain:\n{src}"
        assert kinds(lint_asm(src)) == {"asm-address-operand"}
        with pytest.raises(AssemblerError, match="must be a memory"):
            assemble(src)

    def test_leal_of_a_data_label_ok(self):
        src = (".data\ndata:\n    .long 0\n.text\nmain:\n"
               "    leal data, %eax\n    leal 4(%ebx), %eax\n    ret\n")
        assert lint_asm(src) == []
        assemble(src)

    def test_cmpb_immediate_second_operand_ok(self):
        src = ".text\nmain:\n    cmpb %al, $3\n    ret\n"
        assert lint_asm(src) == []
        assemble(src)

    def test_error_finding_iff_assembler_raises(self):
        """Over every mnemonic (and alias) with zero to two operands of
        each kind, the lint reports an error exactly when the assembler
        raises."""
        mnemonics = sorted(instructions.MNEMONICS) \
            + sorted(instructions.ALIASES) + ["frobl"]
        for mnemonic in mnemonics:
            for n in range(3):
                for ops in itertools.product(OPERANDS, repeat=n):
                    src = (".data\ndata:\n    .long 0\n.text\nmain:\n"
                           f"    {mnemonic} {', '.join(ops)}\n    ret\n")
                    errors = [f for f in lint_asm(src)
                              if f.severity == "error"]
                    try:
                        assemble(src)
                    except AssemblerError as exc:
                        assert errors, f"{src!r}: lint missed {exc}"
                    else:
                        assert not errors, f"{src!r}: {errors}"

    @pytest.mark.parametrize("src", [
        ".data\nx:\n  movl $1, %eax\n",
        ".data\nx:\n  .long 1\n  ret\n.text\nmain:\n  ret\n",
        ".text\nmain:\n  leal %ecx, %eax\n  ret\n",
        ".text\nmain:\n  leal (%ecx), %eax\n  ret\n",
        ".data\nx:\n  .long 1\n.text\nmain:\n  ret\n",
        ".data\nx:\n  .long foo\n.text\nmain:\n  ret\n",
        ".data\nx:\n  .quad 1\n.text\nmain:\n  ret\n",
        ".data\nx:\n  .asciz hi\n.text\nmain:\n  ret\n",
        "main:\n  .long 5\n  ret\n",
        '.text\nmain:\n  .asciz "hi"\n  ret\n',
        '.data\nx:\n  .asciz "a#b"\n.text\nmain:\n  ret\n'])
    def test_error_finding_iff_assembler_raises_on_programs(self, src):
        errors = [f for f in lint_asm(src) if f.severity == "error"]
        try:
            assemble(src)
        except AssemblerError as exc:
            assert errors, f"{src!r}: lint missed {exc}"
        else:
            assert not errors, f"{src!r}: {errors}"

    @pytest.mark.parametrize("directive", [".long foo", ".quad 1",
                                           ".asciz hi"])
    def test_malformed_data_directive_is_a_syntax_error(self, directive):
        src = f".data\nx:\n  {directive}\n.text\nmain:\n  ret\n"
        assert [(f.line, f.kind) for f in lint_asm(src)] == [(3, "asm-syntax")]
        with pytest.raises(AssemblerError, match="^line 3: "):
            assemble(src)


#: one source line of each shape a program is drawn from: labels (the
#: operands also name the undefined ``nowhere``), section switches, data
#: directives well and badly formed, directives the text section
#: ignores, and instructions over every mnemonic with OPERANDS
LINES = st.one_of(
    st.sampled_from(["main:", "data:", "x:"]),
    st.sampled_from([".text", ".data"]),
    st.sampled_from([".long 1", ".long -1, 0x10", ".long foo", ".byte 255",
                     ".byte", ".space 4", ".space -1", ".space",
                     '.asciz "hi"', ".asciz hi", '.ascii "a"', ".quad 1"]),
    st.sampled_from([".globl main", ".align 4", ".type main, @function"]),
    st.builds(lambda m, ops: f"    {m} {', '.join(ops)}",
              st.sampled_from(sorted(instructions.MNEMONICS)
                              + sorted(instructions.ALIASES) + ["frobl"]),
              st.lists(st.sampled_from(OPERANDS), max_size=2)))


@settings(max_examples=500, deadline=None)
@given(st.lists(LINES, min_size=1, max_size=12))
def test_error_finding_iff_assembler_raises_on_drawn_programs(lines):
    src = "\n".join(lines) + "\n"
    error_lines = {f.line for f in lint_asm(src) if f.severity == "error"}
    try:
        assemble(src)
    except AssemblerError as exc:
        named = re.match(r"line (\d+): ", str(exc))
        assert named and int(named.group(1)) in error_lines, (src, exc)
    else:
        assert not error_lines, src
