"""Tests for ``python -m repro gil`` (the GIL ablation CLI)."""

import json

import pytest

from repro.core.cli import run
from repro.obs.chrome import validate


class TestDemo:
    def test_default_run_shows_ablation_and_convoy(self, capsys):
        assert run([]) == 0
        out = capsys.readouterr().out
        assert "cpu-bound" in out
        assert "io-bound" in out
        assert "convoy effect" in out
        assert "gil stats" in out

    def test_cpu_bound_speedup_stays_flat(self, capsys):
        assert run(["--threads", "8"]) == 0
        out = capsys.readouterr().out
        cpu_row = next(line for line in out.splitlines()
                       if line.strip().startswith("cpu-bound"))
        gil_speedup = float(cpu_row.split()[4].rstrip("x"))
        nogil_speedup = float(cpu_row.split()[5].rstrip("x"))
        assert gil_speedup <= 1.1
        assert nogil_speedup == pytest.approx(8.0)

    def test_chrome_export_validates(self, tmp_path, capsys):
        out_file = tmp_path / "gil.json"
        assert run(["--chrome", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert validate(doc) > 0
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "gil-handoff" in names

    def test_probe_lists_every_backend(self, capsys):
        assert run(["--probe"]) == 0
        out = capsys.readouterr().out
        for name in ("serial", "thread", "process"):
            assert name in out
        assert "subinterpreter" not in out

    def test_custom_gil_knobs(self, capsys):
        assert run(["--switch-interval", "50",
                    "--acquire-cost", "0"]) == 0
        assert "interval=50" in capsys.readouterr().out


class TestArgs:
    def test_help(self, capsys):
        assert run(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_bad_threads(self, capsys):
        assert run(["--threads", "0"]) == 2

    def test_bad_interval(self, capsys):
        assert run(["--switch-interval", "-5"]) == 2
        assert "error" in capsys.readouterr().out

    def test_unknown_arg(self, capsys):
        assert run(["--frobnicate"]) == 2

    def test_main_dispatches_gil(self, capsys):
        from repro.__main__ import main
        assert main(["gil", "--threads", "2"]) == 0
        assert "convoy" in capsys.readouterr().out
