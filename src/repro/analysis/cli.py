"""The ``python -m repro analyze`` command-line driver.

Dispatches on file suffix: ``.c`` runs the CFG/dataflow checkers,
``.s`` the assembler lint, ``.py`` the static concurrency analysis
(thread bodies found in the file).  Directories are walked recursively
for those suffixes.  Exit status follows lint convention: 0 when every
file is clean, 1 when any finding was reported, 2 on usage errors —
inverted by ``--expect-findings`` for seeded-buggy corpora, where a
file with *no* findings is the failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.analysis.asmlint import lint_asm
from repro.analysis.checks import analyze_c_source
from repro.analysis.concurrency import analyze_python_source
from repro.analysis.report import (
    FileReport,
    render_json,
    render_text,
)

SUFFIXES = (".c", ".s", ".py")


def analyze_file(path: Path) -> FileReport:
    """Analyze one source file by suffix; unknown suffixes are clean."""
    text = path.read_text(encoding="utf-8")
    name = str(path)
    if path.suffix == ".c":
        return FileReport(name, analyze_c_source(text, name))
    if path.suffix == ".s":
        return FileReport(name, lint_asm(text, name))
    if path.suffix == ".py":
        return FileReport(name, analyze_python_source(text, name))
    return FileReport(name, [])


def gather_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(
                f for f in p.rglob("*") if f.suffix in SUFFIXES))
        else:
            files.append(p)
    return files


def add_arguments(parser) -> None:
    """Declare ``analyze``'s options and paths."""
    parser.add_argument("paths", nargs="+", metavar="PATH",
                        help="a source file or a directory to search")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array instead of text")
    gate = parser.add_mutually_exclusive_group()
    gate.add_argument("--expect-findings", action="store_true",
                      help="succeed only if every file has a finding")
    gate.add_argument("--fail-on-findings", action="store_true",
                      help="exit 1 on any finding (the default, stated)")
    parser.add_argument("--opt", action="store_true",
                        help="report what the optimizer does to each .c/.s "
                             "file instead of linting it")


def run(argv: list[str]) -> int:
    """``python -m repro analyze ARGV``; returns the exit status."""
    # imported here: the package re-exports run, and must not load argparse
    from repro.cli import run_command
    return run_command("analyze", argv)


def main(args) -> int:
    """Analyze every path and print the report; returns the exit status
    (0 clean, 1 findings, 2 a missing file or one ``--opt`` cannot build)."""
    files = gather_files(args.paths)
    missing = [f for f in files if not f.is_file()]
    if missing:
        for f in missing:
            print(f"no such file: {f}", file=sys.stderr)
        return 2

    if args.opt:
        return _run_opt(files)

    reports = [analyze_file(f) for f in files]
    findings = [f for r in reports for f in r.findings]
    if args.json:
        print(render_json(findings))
    else:
        print(f"analyzed {len(files)} file(s)")
        print(render_text(findings))

    if args.expect_findings:
        silent = [r.path for r in reports if r.clean]
        if silent:
            for p in silent:
                print(f"expected findings but {p} is clean",
                      file=sys.stderr)
            return 1
        return 0
    return 1 if findings else 0


def _run_opt(files: list[Path]) -> int:
    """``--opt`` mode: optimize each .c/.s file and report the passes.

    Exit 0 when every file optimized with no validator rejections,
    1 when any block was rejected (the program still ran — rejected
    blocks are reverted, so this is a report, not a failure of the
    tool), 2 when a file could not be compiled/assembled at all.
    """
    from repro.analysis.opt import optimize_program
    from repro.errors import ReproError
    from repro.system.runner import load_program

    status = 0
    for f in files:
        if f.suffix not in (".c", ".s"):
            print(f"{f}: skipped (--opt handles .c and .s)")
            continue
        try:
            program = load_program(f)
        except (ReproError, OSError) as exc:
            print(f"{f}: error: {exc}", file=sys.stderr)
            return 2
        result = optimize_program(program)
        print(f"{f}: {result.summary()}")
        for name, count in result.pass_stats.items():
            print(f"  {name}: {count} rewrites")
        for rej in result.rejections:
            print(f"  rejected {rej}")
            status = 1
    return status
