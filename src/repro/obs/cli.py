"""``python -m repro trace`` — trace a demo workload and profile it.

Each demo drives one simulator with a shared trace recorder attached;
``all`` runs every demo into a single recorder so the tracks sit side by
side in the viewer. The profile report always prints; ``--chrome
OUT.json`` additionally writes a validated Chrome trace. ``--sample``
and ``--counters-only`` set the recording policy (see
``repro.obs.recorder``)::

    python -m repro trace isa
    python -m repro trace all --chrome trace.json --top 5
"""

from __future__ import annotations

from typing import Callable

from repro import cli
from repro.obs.recorder import TraceRecorder
from repro.obs.report import profile_report

# -- demo workloads (each returns a one-line summary) -----------------------

def _demo_isa(rec: TraceRecorder) -> str:
    from repro.isa import Machine, assemble
    src = """
    main:
      movl $0, %eax
      movl $20, %ecx
    loop:
      addl %ecx, %eax
      subl $1, %ecx
      cmpl $0, %ecx
      jne loop
      ret
    """
    result = Machine(assemble(src), recorder=rec).run()
    return f"isa: sum 1..20 = {result}"


def _demo_kernel(rec: TraceRecorder) -> str:
    from repro.ossim.kernel import Kernel
    from repro.ossim.programs import Compute, Exit, Fork, Print, Wait

    kernel = Kernel(timeslice=2, recorder=rec)
    prog = [Print("A"),
            Fork(child=[Compute(3), Print("c"), Exit(0)],
                 parent=[Compute(1), Wait()]),
            Print("B"), Exit(0)]
    kernel.spawn("demo", prog)
    kernel.run()
    text = "".join(t for _, t in kernel.output)
    return (f"kernel: output {text!r}, "
            f"{kernel.stats.context_switches} context switches")


def _demo_threads(rec: TraceRecorder) -> str:
    from repro.core import Lock, Mutex, SimMachine, Unlock, Work

    machine = SimMachine(num_cores=2, recorder=rec)
    mutex = Mutex("counter")

    def worker(rounds):
        for _ in range(rounds):
            yield Work(20)
            yield Lock(mutex)
            yield Work(5)
            yield Unlock(mutex)

    for i in range(3):
        machine.spawn(worker, 2, name=f"worker-{i}")
    makespan = machine.run()
    return f"threads: 3 workers on 2 cores, makespan {makespan:.0f} cycles"


def _demo_memory(rec: TraceRecorder) -> str:
    from repro.memory.cache import CacheConfig
    from repro.memory.multilevel import CacheHierarchy

    hierarchy = CacheHierarchy(
        [CacheConfig(num_lines=4, block_size=16, associativity=2),
         CacheConfig(num_lines=16, block_size=16, associativity=4)],
        recorder=rec)
    # a strided sweep plus a rescan: misses, then L1/L2 hits
    trace = [i * 16 for i in range(12)] * 2
    for addr in trace:
        hierarchy.access(addr)
    rates = ", ".join(f"{r:.0%}" for r in hierarchy.local_hit_rates())
    return f"memory: {len(trace)} accesses, local hit rates {rates}"


def _demo_vm(rec: TraceRecorder) -> str:
    from repro.vm.mmu import MMU
    from repro.vm.physical import PhysicalMemory

    mmu = MMU(PhysicalMemory(4, 256), page_size=256,
              tlb_entries=4, recorder=rec)
    mmu.create_process(1, 8)
    mmu.create_process(2, 8)
    for pid in (1, 2, 1):
        mmu.context_switch(pid)
        for vpn in range(3):
            mmu.access(vpn * 256 + 16)
            mmu.access(vpn * 256 + 32)   # same page: a TLB hit
    s = mmu.stats
    return (f"vm: {s.accesses} accesses, {s.page_faults} page faults, "
            f"TLB hit rate {mmu.tlb.stats.hit_rate:.0%}")


def _demo_heap(rec: TraceRecorder) -> str:
    from repro.clib.address_space import AddressSpace
    from repro.clib.memcheck import Memcheck

    mc = Memcheck(AddressSpace.standard(heap_size=4096), recorder=rec)
    a = mc.malloc(64)
    b = mc.malloc(32)
    mc.space.write(a, bytes(range(64)))
    mc.space.read(a, 16)
    mc.space.read(b, 4)          # uninitialised read
    mc.free(a)
    mc.free(a)                   # double free
    return (f"heap: {mc.heap.total_allocated} allocs, "
            f"{len(mc.all_findings())} memcheck findings")


DEMOS: dict[str, Callable[[TraceRecorder], str]] = {
    "isa": _demo_isa,
    "kernel": _demo_kernel,
    "threads": _demo_threads,
    "memory": _demo_memory,
    "vm": _demo_vm,
    "heap": _demo_heap,
}


def add_arguments(parser) -> None:
    """Declare ``trace``'s options; ``--sample`` and ``--counters-only``
    both set ``args.policies``, the recorder's policy for every category."""
    demos = (*DEMOS, "all")
    parser.add_argument("demo", metavar="DEMO",
                        type=cli.choice("demo", demos),
                        help=f"one of {', '.join(demos)}")
    cli.add_chrome(parser, "also write a validated Chrome trace")
    parser.add_argument("--top", type=cli.positive_int, default=10,
                        metavar="N", help="rows per profile table "
                                          "(default: 10)")
    policy = parser.add_mutually_exclusive_group()
    policy.add_argument("--sample", dest="policies", metavar="N",
                        type=cli.checked(lambda text: {"*": int(text)},
                                         lambda policy: policy["*"] >= 2,
                                         "{!r} is not an integer >= 2"),
                        help="keep 1 in N events per category")
    policy.add_argument("--counters-only", dest="policies",
                        action="store_const", const={"*": "counters"},
                        help="keep only aggregate counters (exact totals)")
    parser.add_argument("--capacity", type=cli.positive_int, default=65536,
                        metavar="K", help="ring-buffer capacity in events "
                                          "(default: 65536)")


def main(args) -> int:
    """Run the demo(s) into one recorder and print the profile."""
    recorder = TraceRecorder(capacity=args.capacity, policies=args.policies)
    names = list(DEMOS) if args.demo == "all" else [args.demo]
    with cli.chrome_trace(args.chrome, recorder):
        for name in names:
            print(DEMOS[name](recorder))
        print()
        print(profile_report(recorder, top=args.top))
    return 0


def run(argv: list[str]) -> int:
    """``python -m repro trace ARGV``; returns the exit status."""
    return cli.run_command("trace", argv)
