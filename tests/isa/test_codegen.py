"""The interpreter's handlers come from the code generator.

``Machine.run`` dispatches through one handler per instruction, built
by :func:`repro.isa.codegen.handler` with the same writer that compiles
superblocks. These tests pin what that buys: compiled C never needs the
``step()`` fallback, handlers are shared across programs by instruction
form, and the interpreter stays clear of the analysis package the JIT
needs.
"""

import gc
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.opt import optimize_program
from repro.clib.address_space import TEXT_BASE, AddressSpace
from repro.isa import codegen
from repro.isa.assembler import assemble
from repro.isa.ccompiler import compile_c
from repro.isa.instructions import (
    INSTRUCTION_SIZE,
    Immediate,
    Instruction,
    LabelRef,
    Memory,
    Program,
    Register,
)
from repro.isa.machine import Machine
from repro.system.runner import program_from_source, run_system

EXAMPLES = sorted(pathlib.Path(__file__, "../../../examples/c")
                  .resolve().glob("*.c"))


def generated(h) -> bool:
    return h.__code__.co_filename == "<isa handler>"


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "opt"])
@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_compiled_c_gets_generated_handlers(path, optimize):
    program = assemble(compile_c(path.read_text()))
    if optimize:
        program = optimize_program(program).program
    Machine(program).run()
    table = program.predecoded
    assert table is not None and len(table) == len(program.instructions)
    declined = [str(program.at(a)) for a, h in table.items()
                if not generated(h)]
    assert declined == []


def test_declined_forms_fall_back_to_the_interpreter():
    program = assemble("main:\n  movb $7, %al\n  movzbl %al, %eax\n"
                       "  sarl %cl, %eax\n  ret\n")
    assert Machine(program).run() == 7
    handlers = [program.predecoded[ins.address]
                for ins in program.instructions]
    assert [generated(h) for h in handlers] == [False, False, False, True]


def test_two_memory_operands_load_in_step_order():
    """``andl (%eax), (%ebx)`` cannot be assembled (IA-32 forbids two
    memory operands), but a hand-built Program can carry it; every path
    loads the source before the destination, as ``step()`` does."""
    a, b = Memory(0, "eax"), Memory(0, "ebx")
    loop = TEXT_BASE + 5 * INSTRUCTION_SIZE
    rows = [
        ("leal", Memory(-4, "esp"), Register("eax")),   # main:
        ("leal", Memory(-8, "esp"), Register("ebx")),
        ("movl", Immediate(12), a),
        ("movl", Immediate(10), b),
        ("movl", Immediate(3), Register("ecx")),
        ("andl", a, b),                                 # loop:
        ("xorl", b, a),
        ("decl", Register("ecx")),
        ("jne", LabelRef("loop", loop)),
        ("movl", a, Register("eax")),
        ("ret",),
    ]
    program = Program(
        [Instruction(mnemonic, tuple(operands),
                     address=TEXT_BASE + i * INSTRUCTION_SIZE)
         for i, (mnemonic, *operands) in enumerate(rows)],
        {"main": TEXT_BASE, "loop": loop})

    def by_step(m):
        while not m.halted:
            m.step()

    def jitted(m):
        m.run(jit=True)
        assert m.jit_stats.jit_steps > 0

    traces = []
    for run in (by_step, lambda m: m.run(jit=False), jitted):
        m = Machine(program, AddressSpace.standard(trace=True),
                    jit_threshold=1)
        run(m)
        assert m.regs.get("eax") == 12 ^ 8
        traces.append(m.space.trace)
    assert traces[1] == traces[0] and traces[2] == traces[0]


def test_same_forms_compile_no_new_handlers():
    source = EXAMPLES[0].read_text()
    Machine(assemble(compile_c(source))).run()
    before = codegen.handler.cache_info()
    second = assemble(compile_c(source))
    Machine(second).run()
    after = codegen.handler.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == len(second.instructions)


def test_interpreter_does_not_import_analysis():
    script = (
        "import sys\n"
        "import repro.isa.semantics\n"
        "from repro.isa.machine import Machine\n"
        "from repro.system.runner import program_from_source\n"
        "m = Machine(program_from_source("
        "'int main() { int t = 0; for (int i = 0; i < 9; i = i + 1)"
        " { t = t + i; } return t; }'))\n"
        "assert m.run() == 36\n"
        "print(sorted(n for n in sys.modules"
        " if n.startswith('repro.analysis')))\n")
    src = pathlib.Path(codegen.__file__).parents[2]
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "[]"


LOOPY = """
int main() {
    int a[16];
    for (int i = 0; i < 16; i = i + 1) { a[i] = i * 3; }
    int total = 0;
    for (int pass = 0; pass < 4; pass = pass + 1) {
        for (int i = 0; i < 16; i = i + 1) { total = total + a[i]; }
    }
    return total % 251;
}
"""


@pytest.mark.parametrize("bus", ["flat", "cached", "virtual"])
def test_jit_run_leaves_no_cyclic_garbage(bus):
    """A JIT run frees its machine, engine and blocks by reference
    counting alone: nothing is left for the cycle collector."""
    kwargs = dict(procs=2) if bus == "virtual" else {}
    program = program_from_source(LOOPY)
    gc.collect()
    gc.disable()
    try:
        report = run_system(program, bus=bus, jit=True, **kwargs)
        assert report.jit["blocks_compiled"] > 0
        assert gc.collect() == 0
    finally:
        gc.enable()
