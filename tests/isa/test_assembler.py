"""Unit tests for the AT&T-syntax assembler."""

import pytest

from repro.clib.address_space import TEXT_BASE
from repro.errors import AssemblerError
from repro.isa import (
    Immediate, LabelRef, Memory, Register, assemble, parse_operand,
)
from repro.isa import assembler
from repro.isa.assembler import ScanError, scan


class TestOperandParsing:
    def test_immediate(self):
        assert parse_operand("$42") == Immediate(42)
        assert parse_operand("$-7") == Immediate(-7)
        assert parse_operand("$0x10") == Immediate(16)

    def test_register(self):
        assert parse_operand("%eax") == Register("eax")
        assert parse_operand("%al") == Register("al")

    def test_unknown_register(self):
        with pytest.raises(AssemblerError):
            parse_operand("%rax")

    def test_memory_base_only(self):
        assert parse_operand("(%eax)") == Memory(0, "eax")

    def test_memory_disp_base(self):
        assert parse_operand("8(%ebp)") == Memory(8, "ebp")
        assert parse_operand("-4(%ebp)") == Memory(-4, "ebp")

    def test_memory_indexed(self):
        m = parse_operand("(%eax,%ecx,4)")
        assert m == Memory(0, "eax", "ecx", 4)

    def test_memory_full_form(self):
        m = parse_operand("-8(%ebp,%esi,2)")
        assert m == Memory(-8, "ebp", "esi", 2)

    def test_memory_bad_scale(self):
        with pytest.raises(AssemblerError):
            parse_operand("(%eax,%ecx,3)")

    def test_absolute_address(self):
        assert parse_operand("0x8049000") == Memory(displacement=0x8049000)

    def test_label(self):
        assert parse_operand("loop_top") == LabelRef("loop_top")

    def test_garbage(self):
        with pytest.raises(AssemblerError):
            parse_operand("@!bad")


class TestAssemble:
    def test_layout_addresses(self):
        p = assemble("main:\n  movl $1, %eax\n  ret")
        assert p.labels["main"] == TEXT_BASE
        assert [i.address for i in p.instructions] == [TEXT_BASE,
                                                       TEXT_BASE + 4]

    def test_comments_and_directives_skipped(self):
        p = assemble(".text\nmain:\n  nop  # no-op\n  ret\n")
        assert len(p.instructions) == 2

    def test_hash_inside_a_quoted_string_is_data(self):
        p = assemble('.data\ns:\n  .asciz "a#b"  # the comment\n'
                     '.text\nmain:\n  ret')
        assert p.data_image == b"a#b\x00"

    def test_escaped_quote_keeps_the_string_open(self):
        p = assemble('.data\ns:\n  .ascii "a\\"#b"  # "c"\n'
                     '.text\nmain:\n  ret')
        assert p.data_image == b'a"#b'

    @pytest.mark.parametrize("directive, nul", [(".ascii", b""),
                                                (".asciz", b"\x00"),
                                                (".string", b"\x00")])
    def test_string_directives_decode_the_same_escapes(self, directive, nul):
        p = assemble(f'.data\ns:\n  {directive} "a\\n\\t\\"\\\\n\\q"\n'
                     '.text\nmain:\n  ret')
        assert p.data_image == b'a\n\t"\\n\\q' + nul

    @pytest.mark.parametrize("directive", [".long 5", ".byte 1", ".space 4",
                                           '.ascii "a"', '.asciz "a"',
                                           '.string "a"'])
    def test_data_directive_in_text_rejected(self, directive):
        with pytest.raises(AssemblerError,
                           match=r"^line 2: \.\w+ is only allowed in \.data"):
            assemble(f"main:\n  {directive}\n  ret")

    def test_label_resolution(self):
        p = assemble("main:\n  jmp done\n  nop\ndone:\n  ret")
        jmp = p.instructions[0]
        target = jmp.operands[0]
        assert isinstance(target, LabelRef)
        assert target.address == p.labels["done"]

    def test_undefined_label(self):
        with pytest.raises(AssemblerError, match="undefined label"):
            assemble("main:\n  jmp nowhere")

    def test_duplicate_label(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("a:\n  nop\na:\n  ret")

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError, match="unknown mnemonic"):
            assemble("main:\n  frob %eax")

    def test_arity_checked(self):
        with pytest.raises(AssemblerError):
            assemble("main:\n  movl %eax")
        with pytest.raises(AssemblerError):
            assemble("main:\n  ret %eax")

    def test_immediate_destination_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("main:\n  movl %eax, $5")

    def test_two_memory_operands_rejected(self):
        with pytest.raises(AssemblerError,
                           match="line 2: andl cannot take two memory"):
            assemble("main:\n  andl (%eax), (%ebx)\n  ret")
        # a data label resolves to an absolute memory operand
        with pytest.raises(AssemblerError,
                           match="line 6: movl cannot take two memory"):
            assemble(".data\nx:\n  .long 1\n.text\n"
                     "main:\n  movl x, 4(%esp)\n  ret")

    def test_cmpl_allows_immediate_second(self):
        p = assemble("main:\n  cmpl $0, %eax\n  ret")
        assert p.instructions[0].mnemonic == "cmpl"

    def test_push_pop_aliases(self):
        p = assemble("main:\n  push %ebp\n  pop %ebp\n  ret")
        assert p.instructions[0].mnemonic == "pushl"
        assert p.instructions[1].mnemonic == "popl"

    def test_entry_address(self):
        p = assemble("helper:\n  ret\nmain:\n  ret")
        assert p.entry_address == p.labels["main"]

    def test_missing_entry(self):
        p = assemble("helper:\n  ret")
        with pytest.raises(AssemblerError):
            p.entry_address

    def test_listing_shows_labels(self):
        p = assemble("main:\n  movl $1, %eax\n  ret")
        listing = p.listing()
        assert "main:" in listing and "movl $1, %eax" in listing


#: every source these tests, the .data tests and the lint's tests hand
#: the assembler to reject, with the line its error names
REJECTED = [
    ("main:\n  jmp nowhere", 2),
    ("a:\n  nop\na:\n  ret", 3),
    ("main:\n  frob %eax", 2),
    ("main:\n  movl %eax", 2),
    ("main:\n  ret %eax", 2),
    ("main:\n  movl %eax, $5", 2),
    ("main:\n  andl (%eax), (%ebx)\n  ret", 2),
    (".data\nx:\n  .long 1\n.text\nmain:\n  movl x, 4(%esp)\n  ret", 6),
    ("main:\n  movl %%%, %eax\n  ret", 2),
    ("main:\n  leal %ecx, %eax\n  ret", 2),
    ("main:\n  incl $3\n  ret", 2),
    ("main:\n  movl $zz!, %eax", 2),
    (".data\nmovl $1, %eax", 2),
    (".data\nx:\n  .long 1\n  ret\n.text\nmain:\n  ret\n", 4),
    (".data\n.quad 1", 2),
    (".data\ns:\n  .asciz hello", 3),
    (".data\nx:\n  .long foo", 3),
    (".data\nx:\n.space", 3),
    (".data\nx:\n.space -1", 3),
    ("main:\n  .long 5\n  ret", 2),
]


@pytest.mark.parametrize("src, line", REJECTED)
def test_every_error_names_its_line(src, line):
    with pytest.raises(AssemblerError, match=rf"^line {line}: "):
        assemble(src)


class TestRepeatedLines:
    """One parse per distinct line text serves every repeat of it, but
    each occurrence keeps its own instruction, line, address and errors,
    and nothing of the parse outlives the call."""

    def test_identical_lines_give_distinct_instructions(self):
        p = assemble("main:\n  pushl %ebp\n  movl 8(%ebp), %eax\n"
                     "  pushl %ebp\n  movl 8(%ebp), %eax\n  ret")
        first, second = p.instructions[0], p.instructions[2]
        assert first is not second
        assert (first.source_line, second.source_line) == (2, 4)
        assert (first.address, second.address) == (TEXT_BASE,
                                                    TEXT_BASE + 8)
        assert first.label == "main" and second.label is None
        assert first.operands == second.operands == (Register("ebp"),)
        assert p.instructions[1].source_line == 3
        assert p.instructions[3].source_line == 5

    def test_repeated_label_reference_resolves_each_time(self):
        p = assemble("main:\n  jmp end\n  jmp end\nend:\n  ret")
        for ins in p.instructions[:2]:
            assert ins.operands == (LabelRef("end", TEXT_BASE + 8),)

    def test_repeated_bad_line_gives_one_error_per_occurrence(self):
        records = list(scan("main:\n  movl %eax\n  ret\n  movl %eax\n"
                            "  frob %eax\n  frob %eax\n  jmp nowhere\n"
                            "  jmp nowhere"))
        errors = [(r.line, r.kind) for r in records
                  if isinstance(r, ScanError)]
        assert errors == [(2, "arity"), (4, "arity"),
                          (5, "unknown-mnemonic"), (6, "unknown-mnemonic"),
                          (7, "undefined-label"), (8, "undefined-label")]

    def test_nothing_outlives_the_call(self):
        def sizes():
            return {name: len(value)
                    for name, value in vars(assembler).items()
                    if isinstance(value, (dict, list, set))}

        before = sizes()
        assemble("main:\n  movl $123456, %eax\n  movl $123456, %eax\n"
                 "  ret")
        assert sizes() == before
        assert not [name for name, value in vars(assembler).items()
                    if hasattr(value, "cache_info")]
