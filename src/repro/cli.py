"""One argument parser for every ``python -m repro`` subcommand.

Each subcommand module in :data:`COMMANDS` declares its options in
``add_arguments(parser)`` and does its work in ``main(args)``;
:func:`run_command` builds the parser, parses, and calls ``main``. The
contract is the same for every subcommand:

- ``-h``/``--help`` prints the help to stdout and returns 0;
- a usage error (an unknown option, a missing or malformed value)
  prints the usage and ``error: ...`` to stdout and returns 2;
- a :class:`~repro.errors.ReproError` or ``OSError`` raised by ``main``
  prints ``error: ...`` and returns 1.

Abbreviated long options are refused. No package ``__init__`` imports
this module, so importing the library never loads :mod:`argparse`.
"""

from __future__ import annotations

import argparse
import importlib
import math
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.errors import ReproError

#: subcommand name -> module defining ``add_arguments`` and ``main``
COMMANDS = {
    "analyze": "repro.analysis.cli",
    "trace": "repro.obs.cli",
    "run": "repro.system.cli",
    "gil": "repro.core.cli",
    "cluster": "repro.cluster.cli",
}


class _Parser(argparse.ArgumentParser):
    """Reports usage errors on stdout (``exit`` raises ``SystemExit``)."""

    def error(self, message: str):
        self.print_usage()
        print(f"error: {message}")
        raise SystemExit(2)

    def parse(self, argv: list[str]) -> argparse.Namespace:
        """Parse ``argv``, reporting an unknown option before anything
        else (argparse would first report a missing positional)."""
        for arg in argv:
            if arg == "--":
                break
            if (arg.startswith("-") and arg != "-"
                    and arg.split("=", 1)[0] not in self._option_string_actions
                    and not self._negative_number_matcher.match(arg)):
                self.error(f"unknown option {arg!r}")
        return self.parse_intermixed_args(argv)


def run_command(command: str, argv: list[str]) -> int:
    """Parse ``argv`` for ``python -m repro COMMAND`` and run it; returns
    the exit status. The command module's docstring describes it in
    ``--help``."""
    module = importlib.import_module(COMMANDS[command])
    parser = _Parser(prog=f"python -m repro {command}", allow_abbrev=False,
                     description=module.__doc__.replace("``", "")
                     .replace("::\n", ":\n"),
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    module.add_arguments(parser)
    try:
        args = parser.parse(argv)
    except SystemExit as done:
        return int(done.code or 0)
    try:
        return module.main(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}")
        return 1


# -- argument types ----------------------------------------------------------

def checked(convert: Callable[[str], Any], ok: Callable[[Any], bool],
            message: str) -> Callable[[str], Any]:
    """An argument type: ``convert(text)``, reported as a usage error
    ``message.format(text)`` when conversion fails or ``ok`` is false."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(message.format(text))
    return parse


positive_int = checked(int, lambda v: v > 0, "{!r} is not a positive integer")
positive_float = checked(float, lambda v: 0 < v < math.inf,
                         "{!r} is not a finite positive number")
non_negative_float = checked(float, lambda v: 0 <= v < math.inf,
                             "{!r} is not a finite non-negative number")


def choice(name: str, options: tuple[str, ...]) -> Callable[[str], Any]:
    """A string argument type reporting ``unknown NAME 'x'`` for
    anything not in ``options``."""
    return checked(str, options.__contains__,
                   f"unknown {name} {{!r}} (choose from {', '.join(options)})")


# -- Chrome trace export -----------------------------------------------------

def add_chrome(parser: argparse.ArgumentParser, help: str,
               *aliases: str) -> None:
    """Declare ``--chrome OUT.json`` and any ``aliases`` as ``args.chrome``."""
    parser.add_argument(*aliases, "--chrome", dest="chrome",
                        metavar="OUT.json", help=help)


@contextmanager
def chrome_trace(path: str | None, recorder=None) -> Iterator:
    """Yield ``recorder`` (by default a new one if ``path`` is given, else
    None); if the block ends cleanly, write it to ``path`` as a Chrome
    trace and report the event count."""
    if recorder is None and path is not None:
        from repro.obs.recorder import TraceRecorder
        recorder = TraceRecorder()
    yield recorder
    if path is not None:
        from repro.obs.chrome import write_chrome
        count = write_chrome(recorder, path)
        print(f"\nwrote {count} Chrome trace events to {path} "
              "(load in https://ui.perfetto.dev)")
