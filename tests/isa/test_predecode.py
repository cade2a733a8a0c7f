"""The predecoded ``Machine.run`` fast path vs the ``step()`` interpreter.

``run()`` dispatches through a decode-once handler table cached on the
Program; it must be observationally identical to stepping: same final
registers, flags, step counts, memory-access trace (loads, stores, and
instruction fetches), and the same faults with the same messages.
"""

import pathlib
import random

import pytest

from repro.clib.address_space import AddressSpace
from repro.errors import IllegalInstruction, MachineFault
from repro.isa.assembler import assemble
from repro.isa.ccompiler import compile_c
from repro.isa.machine import Machine
from repro.obs import TraceRecorder

EXAMPLES = sorted(pathlib.Path(__file__, "../../../examples/c")
                  .resolve().glob("*.c"))


def run_by_step(machine, max_steps=1_000_000):
    """The interpreted loop run() replaces."""
    while not machine.halted:
        if machine.steps >= max_steps:
            raise MachineFault("step limit exceeded (infinite loop?)")
        machine.step()
    return machine.regs.get_signed("eax")


def machine_state(m):
    return (m.regs.snapshot(), str(m.regs.flags), m.steps, m.halted)


def assert_equivalent(program, max_steps=1_000_000):
    m1 = Machine(program, AddressSpace.standard(trace=True),
                 record_fetches=True)
    m2 = Machine(program, AddressSpace.standard(trace=True),
                 record_fetches=True)
    try:
        r1, e1 = run_by_step(m1, max_steps), None
    except (MachineFault, IllegalInstruction) as exc:
        r1, e1 = None, (type(exc), str(exc))
    try:
        r2, e2 = m2.run(max_steps), None
    except (MachineFault, IllegalInstruction) as exc:
        r2, e2 = None, (type(exc), str(exc))

    assert e2 == e1
    assert r2 == r1
    assert machine_state(m2) == machine_state(m1)
    assert m2.space.trace == m1.space.trace
    return r1, e1


class TestExamplePrograms:
    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_compiled_c_matches_step(self, path):
        result, err = assert_equivalent(assemble(compile_c(path.read_text())))
        assert err is None

    def test_divzero_faults_identically(self):
        source = (pathlib.Path(EXAMPLES[0], "../../buggy/divzero.c")
                  .resolve().read_text())
        _, err = assert_equivalent(assemble(compile_c(source)))
        assert err is not None and "division by zero" in err[1]


class TestRandomizedPrograms:
    """Fuzzed straight-line arithmetic: every flag-setting handler."""

    MNEMONICS = ["addl", "subl", "cmpl", "imull", "andl", "orl", "xorl",
                 "testl", "sall", "sarl", "shrl", "notl", "negl",
                 "incl", "decl", "cltd"]
    REGS = ["eax", "ebx", "ecx", "esi", "edi"]

    def random_program(self, seed, length=120):
        rng = random.Random(seed)
        lines = ["main:"]
        for reg in self.REGS:
            lines.append(f"  movl ${rng.randrange(-2**31, 2**31)}, %{reg}")
        for _ in range(length):
            m = rng.choice(self.MNEMONICS)
            r = rng.choice(self.REGS)
            if m == "cltd":
                lines.append("  cltd")
            elif m in ("notl", "negl", "incl", "decl"):
                lines.append(f"  {m} %{r}")
            elif m in ("sall", "sarl", "shrl"):
                lines.append(f"  {m} ${rng.randrange(0, 40)}, %{r}")
            elif rng.random() < 0.5:
                lines.append(
                    f"  {m} ${rng.randrange(-2**31, 2**31)}, %{r}")
            else:
                lines.append(f"  {m} %{rng.choice(self.REGS)}, %{r}")
        lines.append("  ret")
        return assemble("\n".join(lines))

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzzed_arithmetic(self, seed):
        _, err = assert_equivalent(self.random_program(seed))
        assert err is None

    def test_fuzzed_with_stack_and_memory(self):
        program = assemble("""
main:
  pushl %ebp
  movl %esp, %ebp
  subl $32, %esp
  movl $7, -4(%ebp)
  movl $0, %ecx
  movl $0, %eax
loop:
  cmpl $10, %ecx
  jge done
  movl -4(%ebp), %edx
  imull %ecx, %edx
  addl %edx, %eax
  leal 4(%ecx), %esi
  movl %eax, -8(%ebp)
  incl %ecx
  jmp loop
done:
  movl -8(%ebp), %eax
  leave
  ret
""")
        result, err = assert_equivalent(program)
        assert err is None and result == 7 * sum(range(10))


class TestFaults:
    def test_fell_off_reports_eip(self):
        program = assemble("main:\n  movl $1, %eax\n")
        with pytest.raises(MachineFault,
                           match=r"no instruction at eip=0x[0-9a-f]+"):
            Machine(program).run()
        with pytest.raises(MachineFault,
                           match=r"no instruction at eip=0x[0-9a-f]+"):
            step_machine = Machine(program)
            while not step_machine.halted:
                step_machine.step()

    def test_step_limit(self):
        program = assemble("main:\nspin:\n  jmp spin\n")
        with pytest.raises(MachineFault, match="step limit"):
            Machine(program).run(max_steps=100)

    def test_byte_width_fault_matches(self):
        program = assemble("main:\n  movb %eax, %bl\n  halt\n")
        _, err = assert_equivalent(program)
        assert err[0] is IllegalInstruction
        assert "8-bit register" in err[1]

    def test_halted_machine_stays_halted(self):
        program = assemble("main:\n  halt\n")
        m = Machine(program)
        assert m.run() == 0
        assert m.halted and m.steps == 1


class TestPredecodeCache:
    def test_table_cached_on_program(self):
        program = assemble("main:\n  movl $3, %eax\n  ret\n")
        m1 = Machine(program)
        m1.run()
        table = program.predecoded
        assert table is not None
        m2 = Machine(program)
        m2.run()
        assert program.predecoded is table       # reused, not rebuilt
        assert m2.regs.get_signed("eax") == 3

    def test_invalidate_predecode(self):
        program = assemble("main:\n  movl $3, %eax\n  ret\n")
        Machine(program).run()
        program.invalidate_predecode()
        assert program.predecoded is None
        m = Machine(program)
        assert m.run() == 3


class TestTracedLoop:
    def test_second_traced_slice_interns_nothing(self, monkeypatch):
        """A kernel runs a process in many short traced slices; the
        label ids are interned once per machine and recorder."""
        program = assemble(compile_c(
            "int main() { int s = 0; int i;"
            " for (i = 0; i < 50; i = i + 1) { s = s + i; } return s; }"))
        rec = TraceRecorder()
        m = Machine(program, recorder=rec, record_fetches=True)
        assert m.run_slice(20) == 20
        strings = len(rec._strings)
        interned = []

        def spy(name):
            def record(*args):
                interned.append(args)
                return getattr(TraceRecorder, name)(rec, *args)
            return record

        monkeypatch.setattr(rec, "intern", spy("intern"))
        monkeypatch.setattr(rec, "intern_track", spy("intern_track"))
        assert m.run_slice(20) == 20
        assert interned == []
        assert len(rec._strings) == strings
        spans = [e for e in rec.events() if e.ph == "X"]
        assert len(spans) == 40
        assert [e.name for e in spans] == [
            program.by_address[e.args["eip"]].mnemonic for e in spans]
