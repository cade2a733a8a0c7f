"""The usage contract every ``python -m repro`` subcommand shares."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.cli import COMMANDS

SUM_C = str(Path(__file__).resolve().parents[1] / "examples" / "c" / "sum.c")

# one abbreviation of a real long option per subcommand
ABBREVIATED = {
    "analyze": [SUM_C, "--jso"],
    "trace": ["isa", "--to", "2"],
    "run": [SUM_C, "--bat", "5"],
    "gil": ["--thr", "2"],
    "cluster": ["life", "--nod", "2"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
class TestContract:
    def test_help_prints_usage_to_stdout(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(
            f"usage: python -m repro {command}")

    def test_unknown_option(self, command, capsys):
        assert main([command, "--no-such-flag"]) == 2
        out = capsys.readouterr().out
        assert "error: unknown option '--no-such-flag'" in out
        assert "usage:" in out

    def test_abbreviation_rejected(self, command, capsys):
        assert main([command, *ABBREVIATED[command]]) == 2
        assert "error: unknown option" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run", SUM_C, "--bus", "virtual", "--batch", "0"],
    ["run", SUM_C, "--procs", "0"],
    ["run", SUM_C, "--timeslice", "0"],
    ["run", SUM_C, "--max-steps", "0"],
    ["gil", "--switch-interval", "abc"],
    ["gil", "--switch-interval", "nan"],
    ["trace", "isa", "--top", "-2"],
    ["cluster", "life", "--latency", "inf"],
], ids=" ".join)
def test_bad_values_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().out


def test_mutually_exclusive_flags(capsys):
    assert main(["trace", "isa", "--sample", "2", "--counters-only"]) == 2
    assert main(["analyze", "--expect-findings", "--fail-on-findings",
                 SUM_C]) == 2
    assert capsys.readouterr().out.count("error:") == 2


def test_a_source_that_is_not_utf8_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_bytes(random.Random(28).randbytes(100))
    with pytest.raises(UnicodeDecodeError):
        bad.read_text(encoding="utf-8")
    # run: a file it cannot load, like a missing one
    assert main(["run", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == f"error: {bad} is not UTF-8 text (byte 0xcc at offset 0)\n"
    assert err == ""
    # analyze: a file it cannot analyze, on stderr
    assert main(["analyze", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"{bad}: error: {bad} is not UTF-8 text "
                   "(byte 0xcc at offset 0)\n")


def test_importing_the_packages_leaves_the_parser_unloaded():
    # the analysis package re-exports run_cli, and the E21 worker
    # imports these packages: its set-up must not pay for argparse
    code = ("import sys, repro, repro.analysis, repro.analysis.opt, "
            "repro.cluster, repro.core, repro.life, repro.obs, "
            "repro.system, repro.vm\n"
            "print(sorted({'argparse', 'repro.cli'} & set(sys.modules)))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
