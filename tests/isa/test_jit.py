"""The superblock JIT vs the interpreters, three ways on every bus.

Every program runs step-by-step (the scalar oracle), through the
predecoded ``run()`` loop, and through the JIT with ``jit_threshold=1``
(so every reachable block compiles). All three must agree on the final
registers, flags, step counts, the full memory-access trace (loads,
stores, fetches — ``record_fetches=True`` everywhere), bus/cache/TLB
statistics, and faults: same exception type, same message, and the same
mid-block position (steps executed, %eip, partial state, partial
trace). This is the observational-equivalence contract ``repro.isa.jit``
promises.
"""

import random

import pytest

from repro.clib.address_space import HEAP_BASE, AddressSpace
from repro.errors import ReproError
from repro.isa.assembler import assemble
from repro.isa.machine import Machine
from repro.system.bus import CachedBus, FlatBus, VirtualBus

KINDS = ["space", "flat", "cached", "virtual"]


def make_machine(kind, program, **kwargs):
    if kind == "space":
        return Machine(program, AddressSpace.standard(trace=True),
                       record_fetches=True, **kwargs)
    if kind == "flat":
        return Machine(program, bus=FlatBus(AddressSpace.standard(trace=True)),
                       record_fetches=True, **kwargs)
    if kind == "cached":
        return Machine(program,
                       bus=CachedBus(AddressSpace.standard(trace=True)),
                       record_fetches=True, **kwargs)
    bus = VirtualBus(trace=True)
    bus.create_process(1)
    return Machine(program, bus=bus, pid=1, record_fetches=True, **kwargs)


def observe(machine, kind):
    """Everything the three execution paths must agree on."""
    m = machine
    out = {
        "regs": m.regs.snapshot(),
        "flags": str(m.regs.flags),
        "steps": m.steps,
        "halted": m.halted,
    }
    if kind == "space":
        out["trace"] = m.space.trace
    elif kind == "virtual":
        out["trace"] = m.bus.space_of(1).trace
        out["bus"] = repr(vars(m.bus.stats))
        tlb = m.bus.mmu.tlb.stats
        out["tlb"] = (tlb.hits, tlb.misses, tlb.flushes)
        vm = m.bus.mmu.stats
        out["vm"] = (vm.accesses, vm.page_faults, vm.evictions, vm.writebacks)
        out["cache"] = [(c.stats.accesses, c.stats.hits, c.stats.misses)
                        for c in m.bus.hierarchy.levels]
    else:
        out["trace"] = m.bus.space.trace
        out["bus"] = repr(vars(m.bus.stats))
        if kind == "cached":
            out["cache"] = [(c.stats.accesses, c.stats.hits, c.stats.misses)
                            for c in m.bus.hierarchy.levels]
    return out


def run_machine(machine, mode, max_steps=300_000):
    """Execute to completion; faults become comparable (type, message)."""
    try:
        if mode == "step":
            while not machine.halted:
                if machine.steps >= max_steps:
                    from repro.errors import MachineFault
                    raise MachineFault("step limit exceeded (infinite loop?)")
                machine.step()
            return machine.regs.get_signed("eax"), None
        return machine.run(max_steps), None
    except ReproError as exc:
        return None, (type(exc), str(exc))


def assert_three_way(program, kind, max_steps=300_000):
    """step() oracle == predecoded run() == JIT, bit for bit."""
    oracle = make_machine(kind, program)
    predecoded = make_machine(kind, program)
    jitted = make_machine(kind, program, jit=True, jit_threshold=1)
    r_oracle = run_machine(oracle, "step", max_steps)
    r_pre = run_machine(predecoded, "run", max_steps)
    r_jit = run_machine(jitted, "run", max_steps)
    assert r_pre == r_oracle
    assert r_jit == r_oracle
    assert observe(predecoded, kind) == observe(oracle, kind)
    assert observe(jitted, kind) == observe(oracle, kind)
    return r_oracle, jitted


LOOP_ASM = """
main:
  pushl %ebp
  movl %esp, %ebp
  subl $32, %esp
  movl $0, %eax
  movl $0, %ecx
loop:
  cmpl $50, %ecx
  jge done
  movl %ecx, %edx
  imull %edx, %edx
  addl %edx, %eax
  movl %eax, -4(%ebp)
  incl %ecx
  jmp loop
done:
  movl -4(%ebp), %eax
  leave
  ret
"""


class TestLoopsOnEveryBus:
    @pytest.mark.parametrize("kind", KINDS)
    def test_counted_loop(self, kind):
        (result, err), jitted = assert_three_way(assemble(LOOP_ASM), kind)
        assert err is None and result == sum(i * i for i in range(50))
        stats = jitted.jit_stats
        assert stats.blocks_compiled > 0
        assert stats.jit_steps > 0
        assert stats.side_exits > 0        # the jge taken on exit

    @pytest.mark.parametrize("kind", KINDS)
    def test_call_ret_and_stack(self, kind):
        program = assemble("""
main:
  movl $0, %eax
  movl $6, %ecx
again:
  pushl %ecx
  call double
  popl %ecx
  addl %edx, %eax
  decl %ecx
  jne again
  ret
double:
  movl 4(%esp), %edx
  addl %edx, %edx
  ret
""")
        (result, err), _ = assert_three_way(program, kind)
        assert err is None and result == 2 * sum(range(1, 7))


class TestRandomizedThreeWay:
    """Fuzzed loops with memory traffic, pushes/pops, jcc, and idivl."""

    REGS = ["eax", "ebx", "esi", "edi"]
    ARITH = ["addl", "subl", "cmpl", "imull", "andl", "orl", "xorl",
             "testl", "notl", "negl", "incl", "decl"]

    def random_program(self, seed, length=40):
        rng = random.Random(seed)
        lines = ["main:",
                 "  pushl %ebp",
                 "  movl %esp, %ebp",
                 "  subl $64, %esp"]
        for reg in self.REGS:
            lines.append(f"  movl ${rng.randrange(-2**31, 2**31)}, %{reg}")
        lines += ["  movl $12, %ecx", "loop:"]
        skip = 0
        for _ in range(length):
            op = rng.randrange(8)
            r = rng.choice(self.REGS)
            if op == 0:           # store to the frame
                lines.append(f"  movl %{r}, -{rng.randrange(1, 17) * 4}(%ebp)")
            elif op == 1:         # load from the frame
                lines.append(f"  movl -{rng.randrange(1, 17) * 4}(%ebp), %{r}")
            elif op == 2:         # push/pop pair (stack discipline kept)
                lines.append(f"  pushl %{r}")
                lines.append(f"  popl %{rng.choice(self.REGS)}")
            elif op == 3:         # forward jcc over a couple of ops (side exit)
                cond = rng.choice(["je", "jne", "jg", "jl", "jae", "jbe"])
                lines.append(f"  cmpl ${rng.randrange(-100, 100)}, %{r}")
                lines.append(f"  {cond} skip{skip}")
                lines.append(f"  addl ${rng.randrange(1, 1000)}, %{r}")
                lines.append(f"skip{skip}:")
                skip += 1
            elif op == 4:         # guarded idivl: nonzero divisor
                lines.append(f"  movl ${rng.randrange(1, 50)}, %ebx")
                lines.append("  cltd" if rng.random() < 0.5
                             else "  movl $0, %edx")
                lines.append("  idivl %ebx")
            elif op == 5:         # shift by a register count
                lines.append(f"  movl ${rng.randrange(0, 40)}, %ebx")
                lines.append(f"  {rng.choice(['sall', 'sarl', 'shrl'])} "
                             f"%ebx, %{r}")
            elif rng.random() < 0.5:
                m = rng.choice(self.ARITH)
                if m in ("notl", "negl", "incl", "decl"):
                    lines.append(f"  {m} %{r}")
                else:
                    lines.append(f"  {m} ${rng.randrange(-2**31, 2**31)}, %{r}")
            else:
                m = rng.choice(self.ARITH[:7])
                lines.append(f"  {m} %{rng.choice(self.REGS)}, %{r}")
        lines += ["  decl %ecx", "  jne loop",
                  "  movl -4(%ebp), %eax", "  leave", "  ret"]
        return assemble("\n".join(lines))

    @pytest.mark.parametrize("seed", range(10))
    def test_fuzzed_flat_space(self, seed):
        assert_three_way(self.random_program(seed), "space")

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["flat", "cached", "virtual"])
    def test_fuzzed_on_buses(self, kind, seed):
        assert_three_way(self.random_program(seed + 100), kind)


class TestFaultsThreeWay:
    """Faults must land at the same instruction with the same message,
    the same partial state, and the same partial trace — even when the
    fault happens in the middle of a compiled block."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_midblock_segfault_in_hot_loop(self, kind):
        # stores march off the end of the heap after ~16k iterations, so
        # the faulting store sits mid-block in well-warmed JIT code
        program = assemble(f"""
main:
  movl ${HEAP_BASE}, %esi
  movl $0, %ecx
bang:
  movl %ecx, (%esi)
  addl $64, %esi
  incl %ecx
  jmp bang
""")
        (_, err), jitted = assert_three_way(program, kind)
        assert err is not None
        assert jitted.jit_stats.jit_steps > 0      # it really ran jitted

    @pytest.mark.parametrize("kind", KINDS)
    def test_division_faults(self, kind):
        for tail, needle in [("movl $0, %ecx", "division by zero"),
                             ("movl $-1, %ecx", "quotient overflow")]:
            program = assemble(f"""
main:
  movl $-2147483648, %eax
  cltd
  {tail}
  idivl %ecx
  ret
""")
            (_, err), _ = assert_three_way(program, kind)
            assert err is not None and needle in err[1]

    @pytest.mark.parametrize("kind", KINDS)
    def test_step_limit_mid_loop(self, kind):
        program = assemble("main:\nspin:\n  incl %eax\n  jmp spin\n")
        (_, err), _ = assert_three_way(program, kind, max_steps=1000)
        assert err is not None and "step limit" in err[1]

    def test_fell_off_end_message_pinned(self):
        """Hygiene regression: step() and the JIT agree on the
        fell-off-the-end fault — same message text, same %eip, same
        step count — and record_fetches accounts the same fetches."""
        program = assemble("main:\n  movl $1, %eax\n  incl %eax\n")
        (_, err), jitted = assert_three_way(program, "space")
        assert err is not None
        assert err[1] == ("no instruction at eip=0x08048008 after 2 steps "
                          "(fell off the program?)")
        # both executed fetches were recorded before the fault
        fetches = [a for a in jitted.space.trace if a.kind == "fetch"]
        assert len(fetches) == 2


class TestJitMachinery:
    def test_stats_and_coverage(self):
        machine = make_machine("space", assemble(LOOP_ASM),
                               jit=True, jit_threshold=1)
        machine.run()
        stats = machine.jit_stats
        assert stats is not None
        d = stats.as_dict()
        assert set(d) == {"blocks_compiled", "entries", "side_exits",
                          "jit_steps", "failures", "guards_elided"}
        assert d["jit_steps"] <= machine.steps
        assert d["entries"] >= d["blocks_compiled"]

    def test_default_threshold_needs_heat(self):
        # a straight-line program never gets hot at the default threshold
        program = assemble("main:\n  movl $9, %eax\n  ret\n")
        machine = make_machine("space", program, jit=True)
        assert machine.run() == 9
        stats = machine.jit_stats
        assert stats is None or stats.blocks_compiled == 0

    def test_jit_off_by_default(self):
        machine = make_machine("space", assemble(LOOP_ASM))
        machine.run()
        assert machine.jit_stats is None

    def test_run_slice_through_jit(self):
        machine = make_machine("space", assemble(LOOP_ASM),
                               jit=True, jit_threshold=1)
        total = 0
        while not machine.halted:
            total += machine.run_slice(25)
        assert total == machine.steps
        assert machine.regs.get_signed("eax") == sum(i * i for i in range(50))
        assert machine.jit_stats.jit_steps > 0

    def test_no_stack_region_declines_jit(self):
        # with %esp outside every read-write region the machine stays on
        # the interpreter, with the interpreter's results
        source = ("main:\n  movl $6, %ecx\n  movl $0, %eax\nloop:\n"
                  "  addl %ecx, %eax\n  decl %ecx\n  jne loop\n  halt\n")
        results = []
        for jit in (False, True):
            machine = make_machine("space", assemble(source), jit=jit,
                                   jit_threshold=1)
            machine.regs.set("esp", 0)
            machine.run()
            results.append(observe(machine, "space"))
            assert machine.jit_stats is None
        assert results[0] == results[1]
        assert results[1]["regs"]["eax"] == 21

    def test_unsupported_instructions_fall_back(self):
        # byte ops are interpreter-only; the block fails to compile and
        # the program still runs correctly via the fallback
        program = assemble("""
main:
  movl $5, %ecx
  movl $0, %eax
loop:
  movb $3, %bl
  addl %ebx, %eax
  decl %ecx
  jne loop
  ret
""")
        (result, err), jitted = assert_three_way(program, "space")
        assert err is None and result == 15
        assert jitted.jit_stats.failures > 0
