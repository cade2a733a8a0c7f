"""E18 — the translation-validated optimizer: fewer instructions, same answer.

``repro.analysis.opt`` rewrites the assembled program (constant
folding, local value numbering, dead-code elimination, jump threading)
with every block proved equivalent by ``repro.analysis.verify`` or
reverted. The claims, in falsifiability order:

* **correctness** (asserted): optimized and unoptimized runs end in
  the identical final machine state — exit status and all counters
  derived from it — and the validator accepted every block that
  shipped (rejections mean reverts, never wrong code);
* **performance** (asserted floor, recorded trajectory): dynamic
  instruction count drops ≥10% on at least one loop-heavy workload;
* **composition** (asserted): the optimized program under the JIT
  reports statistics identical to its interpreted run, with stack
  guards elided on the strength of the range analysis.

Each reduction row also records ``optimize_ms``, the host time of the
``optimize_program`` call itself (all passes, validation included), so
the optimizer's own cost has a trajectory next to what it saves.

``E18_N`` scales the loop bound for CI smoke runs (default 120 →
~1M dynamic instructions across the workloads; smoke uses ~12).
Rows land in ``BENCH_analysis.json`` next to the E13 precision/recall
trajectory.
"""

import os
import time

from benchmarks._harness import emit, emit_json
from pathlib import Path

from repro.analysis.opt import optimize_program
from repro.system import run_system
from repro.system.runner import program_from_source

REPO = Path(__file__).resolve().parent.parent
ANALYSIS_JSON = REPO / "BENCH_analysis.json"

N = int(os.environ.get("E18_N", "120"))
MAX_STEPS = N * N * 60 + 200_000

#: loop-heavy workloads in the house style of examples/c, with an
#: ``E18_N``-scalable bound so CI smoke stays cheap
WORKLOADS = {
    "nested_sum": f"""
int main() {{
    int total = 0;
    for (int i = 0; i < {N}; i = i + 1) {{
        for (int j = 0; j < {N}; j = j + 1) {{
            total = total + i * j;
        }}
    }}
    return total % 251;
}}
""",
    "stride_copy": f"""
int main() {{
    int src[64];
    int dst[64];
    for (int i = 0; i < 64; i = i + 1) {{
        src[i] = i * 3;
    }}
    int sum = 0;
    for (int pass = 0; pass < {max(N // 8, 1)}; pass = pass + 1) {{
        for (int i = 0; i < 64; i = i + 1) {{
            dst[i] = src[i];
        }}
        sum = sum + dst[pass % 64];
    }}
    return sum % 256;
}}
""",
    "call_heavy": f"""
int square(int x) {{
    return x * x;
}}

int main() {{
    int total = 0;
    for (int i = 0; i < {N}; i = i + 1) {{
        total = total + square(i) % 17;
    }}
    return total % 256;
}}
""",
}


def _timed(program, **kwargs):
    start = time.perf_counter()
    report = run_system(program, max_steps=MAX_STEPS, **kwargs)
    return report, time.perf_counter() - start


def test_bench_opt_reduction():
    rows, json_rows = [], []
    best_cut = 0.0
    for name, source in WORKLOADS.items():
        program = program_from_source(source)
        start = time.perf_counter()
        result = optimize_program(program)
        optimize_ms = (time.perf_counter() - start) * 1e3
        plain, t_plain = _timed(program_from_source(source), jit=False)
        opted, t_opt = _timed(result.program, jit=False)

        # correctness: same answer, every shipped block validated
        assert opted.exit_statuses == plain.exit_statuses
        for rej in result.rejections:
            # a rejection is a revert, so it must not change behaviour
            assert rej.reason

        cut = 1 - opted.instructions / plain.instructions
        best_cut = max(best_cut, cut)
        rows.append((name, plain.instructions, opted.instructions,
                     f"{cut:.1%}", f"{plain.cpi:.2f}", f"{opted.cpi:.2f}",
                     result.proved_safe, len(result.rejections),
                     f"{optimize_ms:.1f}"))
        json_rows.append({
            "bench": "opt_reduction", "experiment": "E18",
            "workload": name, "n": N,
            "instructions_unopt": plain.instructions,
            "instructions_opt": opted.instructions,
            "reduction": cut,
            "cpi_unopt": plain.cpi, "cpi_opt": opted.cpi,
            "static_before": result.static_before,
            "static_after": result.static_after,
            "proved_safe": result.proved_safe,
            "rejections": len(result.rejections),
            "secs_unopt": t_plain, "secs_opt": t_opt,
            "optimize_ms": optimize_ms,
        })

    emit(f"E18: optimizer dynamic-instruction reduction (N={N})",
         ["workload", "unopt", "opt", "cut", "CPI unopt", "CPI opt",
          "proved safe", "rejected", "optimize ms"],
         rows, align_right=[False] + [True] * 8)
    emit_json(ANALYSIS_JSON, json_rows)

    # the acceptance bar: >=10% off at least one loop-heavy workload
    assert best_cut >= 0.10, f"best reduction only {best_cut:.1%}"


def test_bench_opt_jit_composition():
    rows, json_rows = [], []
    for bus in ("flat", "cached"):
        source = WORKLOADS["nested_sum"]
        result = optimize_program(program_from_source(source))
        interp, t_interp = _timed(result.program, bus=bus, jit=False)
        jitted, t_jit = _timed(result.program, bus=bus, jit=True)

        # composition leash: opt+JIT reports exactly what opt reports
        assert jitted.exit_statuses == interp.exit_statuses
        assert jitted.counters() == interp.counters()
        assert jitted.jit is not None
        elided = jitted.jit["guards_elided"]
        assert elided > 0, "range analysis elided no guards"

        speedup = t_interp / t_jit if t_jit else 0.0
        rows.append((bus, jitted.instructions, elided,
                     f"{t_interp:.3f}s", f"{t_jit:.3f}s",
                     f"{speedup:.1f}x"))
        json_rows.append({
            "bench": "opt_jit_composition", "experiment": "E18",
            "bus": bus, "n": N,
            "instructions": jitted.instructions,
            "guards_elided": elided,
            "secs_interp": t_interp, "secs_jit": t_jit,
            "speedup": speedup,
        })

    emit(f"E18: opt+JIT composition, guards elided (N={N})",
         ["bus", "instructions", "guards elided", "interp", "jit",
          "speedup"],
         rows, align_right=[False] + [True] * 5)
    emit_json(ANALYSIS_JSON, json_rows)
