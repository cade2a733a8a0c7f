"""Tests of the E21 benchmark's own machinery.

    python3 -m pytest perfbench/tests -q

They cover what the benchmark's numbers rest on: deterministic seeded
generators, the oracle catching a wrong counter, the self-time
arithmetic and the host-speed normalisation.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from refkernel import NOMINAL_REF_MS  # noqa: E402


def _shape(request: dict) -> dict:
    """What a request costs, without the seeded values."""
    keep = ("kind", "bus", "procs", "jit", "opt", "threads", "rounds",
            "nodes", "schedule", "gil", "cores")
    out = {k: request[k] for k in keep if k in request}
    for key in ("grid", "vaddrs", "scripts"):
        if key in request:
            out[key] = [len(x) for x in request[key]] \
                if key == "scripts" else len(request[key])
    return out


# -- generators ------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert workloads.digest(first) == workloads.digest(
        workloads.generate(workload, 7))
    assert first != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_values_not_shape(workload):
    a = workloads.generate(workload, 1)
    b = workloads.generate(workload, 2)
    assert [r["id"] for r in a] == list(range(len(a)))
    assert [_shape(r) for r in a] == [_shape(r) for r in b]


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.generate("no-such-workload", 0)


def test_goldens_match_the_generator():
    for workload in workloads.WORKLOADS:
        requests = workloads.generate(workload, run.DEFAULT_SEED)
        expected = run.expected_results(workload, run.DEFAULT_SEED, requests)
        assert len(expected) == len(requests)


# -- the oracle --------------------------------------------------------------------

TINY = {"id": 0, "kind": "isa", "bus": "cached", "procs": 1, "jit": True,
        "opt": False,
        "source": "int main() { int s = 0; for (int i = 0; i < 9; "
                  "i = i + 1) { s = s + i; } return s; }\n"}


def test_corrupted_counter_makes_fail_frac_positive(monkeypatch):
    expected = run.reference_results([TINY])
    assert expected[0]["exit"] == {"0": 36}
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "MIN_REQUESTS", 3)
    _, diag = run.end_to_end([TINY], expected, seconds=0)
    assert diag["attempted"] == 4 and diag["failed"] == 0

    corrupted = [dict(expected[0], counters=dict(expected[0]["counters"]))]
    corrupted[0]["counters"]["l1_hits"] += 1
    _, diag = run.end_to_end([TINY], corrupted, seconds=0)
    assert diag["failed"] == diag["attempted"] == 4


def test_matches_rejects_errors_and_missing_fields():
    expected = {"exit": {"0": 1}, "work": 5}
    assert run.matches(expected, {"ok": True, "result": {"exit": {"0": 1}}})
    assert not run.matches(expected, {"ok": False, "error": "boom"})
    assert not run.matches(expected, {"ok": True, "result": {}})
    assert not run.matches(expected, {"ok": True,
                                      "result": {"exit": {"0": 2}}})


# -- self times ----------------------------------------------------------------------

def test_self_times_of_nested_spans():
    # request [0, 100) > jit [10, 70) > bus [20, 50) > cache [25, 45),
    # and a second jit [80, 95); times in ns
    spans = [
        (0, -1, "request", 0, 100),
        (0, 0, "jit", 10, 70),
        (0, 1, "bus", 20, 50),
        (0, 2, "cache", 25, 45),
        (0, 0, "jit", 80, 95),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {"request": 25, "jit": 45, "bus": 10, "cache": 20}
    assert sum(selfs.values()) == 100


def test_recursive_layer_is_not_double_counted():
    spans = [(0, -1, "request", 0, 50), (0, 0, "mmu", 0, 40),
             (0, 1, "mmu", 5, 25)]
    assert tracing.self_times(spans) == {"request": 10, "mmu": 40}


def test_tracer_conserves_wall_time_and_restores_originals():
    import repro.isa.ccompiler as ccompiler
    import repro.system.runner as runner
    from repro.system import run_system

    original = ccompiler.compile_c
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert runner.compile_c is not original
        report, selfs, wall, calls = tracer.request(
            0, run_system, TINY["source"])
    finally:
        tracer.uninstall()
    assert runner.compile_c is original and ccompiler.compile_c is original
    assert report.exit_statuses == {0: 36}
    assert calls["ccompiler.compile_c"] == 1
    assert calls["machine.Machine.run"] == 1
    assert selfs["ccompiler"] > 0 and selfs[tracing.ROOT] > 0
    assert abs(sum(selfs.values()) - wall) <= 0.03 * wall


# -- normalisation ---------------------------------------------------------------------

def test_to_nominal_scales_by_reference_ratio():
    assert run.to_nominal(100.0, NOMINAL_REF_MS) == 100.0
    # the host ran at half speed: 100 ms there is 50 ms on the nominal host
    assert run.to_nominal(100.0, 2 * NOMINAL_REF_MS) == pytest.approx(50.0)


def test_local_refs_follow_a_phase_change():
    # references before/after 6 requests; the host halves speed after
    # request 2 and one reference sample is an outlier
    refs = [2.0, 2.0, 2.0, 4.0, 4.0, 9.0, 4.0]
    local = run.local_refs(refs, 6, half=2)
    assert local == [2.0, 2.0, 3.0, 4.0, 4.0, 4.0]


def test_normalised_rate_is_work_over_normalised_time():
    # 1000 instructions in 4 ms at half speed is 500 kIPS on the
    # nominal host, not the raw 250
    lat = run.to_nominal(4.0, 2 * NOMINAL_REF_MS)
    assert 1000 / lat == pytest.approx(500.0)


def test_percentile_interpolates():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == pytest.approx(50.5)
    assert run.percentile(values, 90) == pytest.approx(90.1)
