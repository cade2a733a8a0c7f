"""Tests for ``python -m repro run`` (the full-system CLI)."""

import json
from pathlib import Path

import pytest

from repro.obs.chrome import validate
from repro.system.bus import BUS_KINDS
from repro.system.cli import run

SUM_C = str(Path(__file__).resolve().parents[2] / "examples" / "c" / "sum.c")


def test_help(capsys):
    assert run(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("bus", BUS_KINDS)
def test_each_bus_runs_sum(bus, capsys):
    assert run([SUM_C, "--bus", bus]) == 0
    assert "exit status" in capsys.readouterr().out


def test_procs_on_flat_bus_is_a_run_error(capsys):
    assert run([SUM_C, "--procs", "2"]) == 1
    assert "error:" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--trace", "--chrome"])
def test_trace_flags_write_a_valid_chrome_trace(flag, tmp_path, capsys):
    out_file = tmp_path / "run.json"
    assert run([SUM_C, "--bus", "virtual", flag, str(out_file)]) == 0
    assert validate(json.loads(out_file.read_text())) > 0
    assert f"Chrome trace events to {out_file}" in capsys.readouterr().out


def test_no_jit_reports_the_same_numbers(capsys):
    def report(flag):
        assert run([SUM_C, "--bus", "cached", flag]) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("jit:")]

    assert report("--no-jit") == report("--jit")
