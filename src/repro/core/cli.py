"""``python -m repro gil`` — the GIL ablation, live.

Runs the cpu-bound and io-bound microworkloads on the simulated machine
with and without the interpreter lock, prints the speedup contrast and
the convoy-effect timeline, and (with ``--probe``) reports which *real*
executor backends this host can run. ``--chrome OUT.json`` exports the
GIL-mode run — holder spans on the GIL lane, hand-off instants — for
the trace viewer.
"""

from __future__ import annotations

from repro import cli
from repro.core.machine import GilConfig, IoWait, SimMachine, SyncCosts, Work

FREE = SyncCosts(lock=0, unlock=0, barrier=0, cond=0, sem=0, spawn=0)


def _cpu(n: float):
    yield Work(n)


def _io(rounds: int, work: float, wait: float):
    for _ in range(rounds):
        yield Work(work)
        yield IoWait(wait)


def _makespan(n_threads: int, body, args: tuple, *,
              gil: GilConfig | None, recorder=None) -> SimMachine:
    machine = SimMachine(n_threads, costs=FREE, gil=gil, recorder=recorder)
    for _ in range(n_threads):
        machine.spawn(body, *args)
    machine.run()
    return machine


def _ablation(threads: int, gil: GilConfig) -> list[str]:
    lines = [f"microworkload ablation at {threads} threads "
             f"(interval={gil.switch_interval_cycles:g}, "
             f"acquire={gil.acquire_cost:g} cycles):", ""]
    work = 10_000.0
    serial_cpu = work * threads
    rows = []
    for label, body, args, serial in [
            ("cpu-bound", _cpu, (work,), serial_cpu),
            ("io-bound", _io, (4, 100.0, 2000.0),
             (100.0 + 2000.0) * 4 * threads)]:
        with_gil = _makespan(threads, body, args, gil=gil)
        without = _makespan(threads, body, args, gil=None)
        rows.append((label, serial, with_gil.makespan, without.makespan))
    lines.append(f"  {'workload':<11} {'serial':>10} {'gil':>10} "
                 f"{'no-gil':>10} {'gil speedup':>12} {'no-gil':>8}")
    for label, serial, gil_ms, nogil_ms in rows:
        lines.append(f"  {label:<11} {serial:>10.0f} {gil_ms:>10.0f} "
                     f"{nogil_ms:>10.0f} {serial / gil_ms:>11.2f}x "
                     f"{serial / nogil_ms:>7.2f}x")
    lines.append("")
    lines.append("  cpu-bound threads serialize on the lock (speedup ~1x);")
    lines.append("  io-bound threads overlap because blocking I/O "
                 "releases it.")
    return lines


def _convoy(gil: GilConfig, recorder=None) -> tuple[list[str], SimMachine]:
    machine = SimMachine(2, costs=FREE, gil=gil, recorder=recorder)
    machine.spawn(_cpu, 20 * gil.switch_interval_cycles, name="hog")
    machine.spawn(_io, 4, 10.0, 50.0, name="io")
    machine.run()
    lines = ["convoy effect — an io thread behind a cpu hog:", ""]
    for _, name, start, end in machine.timeline:
        if name != "io":
            continue
        lines.append(f"  io runs [{start:>6.0f}, {end:>6.0f})  "
                     f"(round trip would be 60 cycles alone)")
    stats = machine.gil_stats
    lines.append("")
    lines.append(f"  gil stats: {stats.acquisitions} acquisitions, "
                 f"{stats.handoffs} hand-offs, {stats.slices} slices, "
                 f"{stats.wait_cycles:.0f} cycles spent waiting")
    return lines, machine


def _probe_table() -> list[str]:
    from repro.core.backends import gil_enabled, probe_backends
    lines = ["real executor backends on this host "
             f"(interpreter GIL: {'on' if gil_enabled() else 'off'}):", ""]
    for cap in probe_backends():
        mark = "yes" if cap.available else "no"
        par = "parallel" if cap.parallel else "serial-equivalent"
        lines.append(f"  {cap.name:<15} available={mark:<4} "
                     f"{par:<18} {cap.detail}")
    return lines


def add_arguments(parser) -> None:
    """Declare ``gil``'s options."""
    parser.add_argument("--threads", type=cli.positive_int, default=4,
                        metavar="N", help="ablation threads (default: 4)")
    parser.add_argument("--switch-interval", type=cli.positive_float,
                        default=100.0, metavar="CYCLES",
                        help="simulated sys.setswitchinterval, in cycles "
                             "(default: 100)")
    parser.add_argument("--acquire-cost", type=cli.non_negative_float,
                        default=5.0, metavar="CYCLES",
                        help="cycles charged per lock hand-off (default: 5)")
    parser.add_argument("--probe", action="store_true",
                        help="also print this host's real-backend table")
    cli.add_chrome(parser, "export the GIL-mode convoy run as a Chrome trace")


def main(args) -> int:
    """Print the ablation and the convoy run; optionally the probe."""
    gil = GilConfig(switch_interval_cycles=args.switch_interval,
                    acquire_cost=args.acquire_cost)
    print("the GIL ablation — simulated interpreter lock")
    print("=" * 52)
    print()
    for line in _ablation(args.threads, gil):
        print(line)
    print()
    with cli.chrome_trace(args.chrome) as recorder:
        convoy_lines, _machine = _convoy(gil, recorder=recorder)
        for line in convoy_lines:
            print(line)
    if args.probe:
        print()
        for line in _probe_table():
            print(line)
    return 0


def run(argv: list[str]) -> int:
    """``python -m repro gil ARGV``; returns the exit status."""
    return cli.run_command("gil", argv)
