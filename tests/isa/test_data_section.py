"""Tests for the .data section: globals, strings, address-of labels."""

import pytest

from repro.analysis.asmlint import lint_asm
from repro.clib.address_space import DATA_BASE
from repro.errors import AssemblerError
from repro.isa import Machine, assemble


class TestDirectives:
    def test_long_values_placed_in_order(self):
        p = assemble("""
        .data
        a:
          .long 17
        b:
          .long -1, 42
        .text
        main:
          ret
        """)
        assert p.labels["a"] == DATA_BASE
        assert p.labels["b"] == DATA_BASE + 4
        assert p.data_image[:4] == (17).to_bytes(4, "little")
        assert p.data_image[4:8] == b"\xff\xff\xff\xff"

    def test_asciz_nul_terminates(self):
        p = assemble('.data\nmsg:\n  .asciz "hi"\n.text\nmain:\n  ret')
        assert p.data_image == b"hi\x00"

    def test_ascii_no_terminator(self):
        p = assemble('.data\nraw:\n  .ascii "ab"\n.text\nmain:\n  ret')
        assert p.data_image == b"ab"

    def test_escapes(self):
        p = assemble('.data\ns:\n  .asciz "a\\nb"\n.text\nmain:\n  ret')
        assert p.data_image == b"a\nb\x00"

    def test_space_zero_fills(self):
        p = assemble(".data\nbuf:\n  .space 8\n.text\nmain:\n  ret")
        assert p.data_image == bytes(8)

    def test_byte_directive(self):
        p = assemble(".data\nflags:\n  .byte 1, 2, 255\n.text\nmain:\n  ret")
        assert p.data_image == b"\x01\x02\xff"

    def test_instruction_in_data_rejected(self):
        with pytest.raises(AssemblerError, match="not allowed in .data"):
            assemble(".data\nmovl $1, %eax")

    def test_unknown_data_directive(self):
        with pytest.raises(AssemblerError, match="unknown data"):
            assemble(".data\n.quad 1")

    def test_unquoted_string_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".data\ns:\n  .asciz hello")

    def test_negative_space_rejected(self):
        # zero bytes would make x alias y
        src = ".data\nx:\n  .space -1\ny:\n  .long 1\n.text\nmain:\n  ret"
        with pytest.raises(AssemblerError, match="line 3: .space count"):
            assemble(src)
        assert [(f.line, f.kind) for f in lint_asm(src)] == [(3, "asm-syntax")]


class TestCodeAccess:
    def test_load_and_store_global(self):
        src = """
        .data
        counter:
          .long 10
        .text
        main:
          movl counter, %eax
          addl $5, %eax
          movl %eax, counter
          movl counter, %eax
          ret
        """
        assert Machine(assemble(src)).run() == 15

    def test_dollar_label_gives_address(self):
        src = """
        .data
        value:
          .long 99
        .text
        main:
          movl $value, %ebx      # pointer to the global
          movl (%ebx), %eax      # dereference it
          ret
        """
        m = Machine(assemble(src))
        assert m.run() == 99
        assert m.regs.get("ebx") == DATA_BASE

    def test_global_array_indexing(self):
        src = """
        .data
        table:
          .long 10, 20, 30, 40
        .text
        main:
          movl $2, %ecx
          movl $table, %ebx
          movl (%ebx,%ecx,4), %eax
          ret
        """
        assert Machine(assemble(src)).run() == 30

    def test_strlen_over_data_string(self):
        src = """
        .data
        greeting:
          .asciz "hello, CS 31"
        .text
        main:
          movl $greeting, %ecx
          movl $0, %eax
        top:
          movzbl (%ecx,%eax,1), %edx
          cmpl $0, %edx
          je out
          incl %eax
          jmp top
        out:
          ret
        """
        assert Machine(assemble(src)).run() == len("hello, CS 31")

    def test_sections_can_interleave(self):
        src = """
        .data
        x:
          .long 1
        .text
        helper:
          movl x, %eax
          ret
        .data
        y:
          .long 2
        .text
        main:
          call helper
          addl y, %eax
          ret
        """
        assert Machine(assemble(src)).run() == 3

    def test_data_label_never_a_jump_target_mixup(self):
        # jumping to a data label assembles (it's a label) but lands
        # outside the text side-table → machine fault, like a real crash
        src = """
        .data
        blob:
          .long 0
        .text
        main:
          jmp blob
        """
        from repro.errors import MachineFault
        with pytest.raises(MachineFault):
            Machine(assemble(src)).run()
