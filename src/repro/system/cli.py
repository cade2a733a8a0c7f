"""``python -m repro run`` — run a compiled program over a chosen bus.

The whole-course demo in one command: compile a ``.c`` (or assemble a
``.s``) file, execute it over the flat, cached, or virtual memory bus,
and print the full-system report (CPI, cache/TLB/fault breakdown,
per-process exit statuses)::

    python -m repro run examples/c/sum.c
    python -m repro run examples/c/sum.c --bus cached
    python -m repro run examples/c/sum.c --bus virtual --procs 2 \\
        --chrome run.json
"""

from __future__ import annotations

from argparse import BooleanOptionalAction

from repro import cli
from repro.system.bus import BUS_KINDS
from repro.system.runner import load_program, run_system


def add_arguments(parser) -> None:
    """Declare ``run``'s options; the defaults are :func:`run_system`'s."""
    parser.add_argument("prog", metavar="PROG.c|PROG.s",
                        help="C-subset or assembly source to run")
    parser.add_argument("--bus", choices=BUS_KINDS, default="flat",
                        help="memory bus to run over (default: flat)")
    for flag, default, text in (
            ("--procs", 1, "processes to timeshare, virtual bus only"),
            ("--timeslice", 2, "scheduler units per quantum"),
            ("--batch", 100, "instructions per scheduler unit"),
            ("--max-steps", 1_000_000, "per-run instruction cap")):
        parser.add_argument(flag, type=cli.positive_int, default=default,
                            metavar="N", help=f"{text} (default: {default})")
    parser.add_argument("--entry", default="main", metavar="NAME",
                        help="entry label (default: main)")
    parser.add_argument("--jit", action=BooleanOptionalAction, default=True,
                        help="JIT hot code (default: on)")
    parser.add_argument("--opt", action=BooleanOptionalAction, default=False,
                        help="run the checked optimizer first (default: off)")
    cli.add_chrome(parser, "also write a Chrome trace of the run", "--trace")


def main(args) -> int:
    """Load, run and report ``args.prog``; write the trace if asked."""
    with cli.chrome_trace(args.chrome) as recorder:
        program = load_program(args.prog, entry=args.entry)
        report = run_system(program, recorder=recorder, bus=args.bus,
                            procs=args.procs, timeslice=args.timeslice,
                            batch=args.batch, max_steps=args.max_steps,
                            entry=args.entry, jit=args.jit, opt=args.opt)
        print(report.render())
    return 0


def run(argv: list[str]) -> int:
    """``python -m repro run ARGV``; returns the exit status."""
    return cli.run_command("run", argv)
