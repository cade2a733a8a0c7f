"""E17 — superblock JIT vs the predecoded interpreter, same numbers.

The JIT (``repro.isa.jit``) compiles hot basic-block runs into Python
closures and batches each block's memory accounting through the bus's
``replay_block`` seam. The claim is a perf claim with a correctness
leash: wall-clock instructions/sec improves by multiples while *every
reported statistic* — instructions, cycles, CPI, cache hit rates, TLB
and fault counters, exit statuses — is identical to the ``jit=False``
run. The equality is asserted (deterministic anywhere); the speedups
are recorded to ``BENCH_system.json``, never asserted, so the
trajectory across PRs is the regression signal.

The *warm* row runs a second :class:`Program` built from the same
source on the cached bus. Superblock code objects are cached per
process by block shape, so that run compiles nothing; it must report
exactly what the cold run did, and both wall times are recorded.

``E17_N`` scales the loop bound for CI smoke runs (default 300 →
~1.4M instructions; smoke uses ~40).
"""

import os
import time

from benchmarks._harness import BENCH_SYSTEM, emit, emit_json
from repro.isa import jit as jitmod
from repro.system import run_system
from repro.system.runner import program_from_source

N = int(os.environ.get("E17_N", "300"))

# nested counted loops, register-friendly body: the CPI workload from
# examples/c/nested_sum.c with a scalable bound
SOURCE = f"""
int main() {{
    int total = 0;
    for (int i = 0; i < {N}; i = i + 1) {{
        for (int j = 0; j < {N}; j = j + 1) {{
            total = total + i * j;
        }}
    }}
    return total % 251;
}}
"""

MAX_STEPS = N * N * 40 + 100_000


def _timed(program, **kwargs):
    start = time.perf_counter()
    report = run_system(program, max_steps=MAX_STEPS, **kwargs)
    return report, time.perf_counter() - start


def test_bench_jit_speedup():
    program = program_from_source(SOURCE)
    rows, json_rows = [], []
    for bus in ("flat", "cached"):
        nojit, t_nojit = _timed(program, bus=bus, jit=False)
        jitmod._code.cache_clear()         # a cold run compiles its blocks
        jit, t_jit = _timed(program, bus=bus, jit=True)

        # the leash: identical answer, identical statistics
        assert jit.exit_statuses == nojit.exit_statuses
        assert jit.counters() == nojit.counters()
        assert nojit.jit is None
        assert jit.jit is not None and jit.jit["blocks_compiled"] > 0
        # on a loop workload the JIT must actually carry the run
        assert jit.jit["jit_steps"] > jit.instructions // 2

        speedup = t_nojit / t_jit if t_jit else float("inf")
        coverage = jit.jit["jit_steps"] / jit.instructions
        rows.append((bus, f"{jit.instructions:,}",
                     f"{jit.instructions / t_nojit:,.0f}",
                     f"{jit.instructions / t_jit:,.0f}",
                     f"{speedup:.1f}x",
                     f"{coverage:.1%}",
                     str(jit.jit["blocks_compiled"]),
                     str(jit.jit["side_exits"])))
        json_rows.append({
            "experiment": "E17", "bus": bus, "n": N,
            "instructions": jit.instructions,
            "ips_nojit": round(jit.instructions / t_nojit, 1),
            "ips_jit": round(jit.instructions / t_jit, 1),
            "speedup": round(speedup, 2),
            "jit_coverage": round(coverage, 4),
            "blocks_compiled": jit.jit["blocks_compiled"],
            "side_exits": jit.jit["side_exits"],
        })

    # warm: a second Program from the same source binds the code
    # objects the cold cached-bus run above compiled
    warm, t_warm = _timed(program_from_source(SOURCE), bus="cached",
                          jit=True)
    assert warm.exit_statuses == jit.exit_statuses
    assert warm.counters() == jit.counters()
    rows.append(("cached, warm", f"{warm.instructions:,}",
                 f"{warm.instructions / t_nojit:,.0f}",
                 f"{warm.instructions / t_warm:,.0f}",
                 f"{t_nojit / t_warm:.1f}x" if t_warm else "inf",
                 f"{warm.jit['jit_steps'] / warm.instructions:.1%}",
                 str(warm.jit["blocks_compiled"]),
                 str(warm.jit["side_exits"])))
    json_rows.append({
        "experiment": "E17", "bus": "cached", "row": "warm", "n": N,
        "instructions": warm.instructions,
        "secs_cold": round(t_jit, 4), "secs_warm": round(t_warm, 4),
    })

    emit(f"E17: superblock JIT vs predecoded interpreter (N={N})",
         ["bus", "instructions", "i/s nojit", "i/s jit", "speedup",
          "jit coverage", "blocks", "side exits"],
         rows,
         align_right=[False, True, True, True, True, True, True, True])
    emit_json(BENCH_SYSTEM, json_rows)


def test_bench_jit_virtual_bus_identical():
    """The virtual bus (kernel timesharing, per-pid page tables): the
    JIT rides ``run_slice`` under the scheduler, and every TLB/VM/cache
    number still matches the interpreted run."""
    source = """
int main() {
    int total = 0;
    for (int i = 0; i < 40; i = i + 1) {
        for (int j = 0; j < 40; j = j + 1) {
            total = total + i + j;
        }
    }
    return total % 251;
}
"""
    program = program_from_source(source)
    kwargs = dict(bus="virtual", procs=2, timeslice=1, batch=50)
    nojit, t_nojit = _timed(program, jit=False, **kwargs)
    jit, t_jit = _timed(program, jit=True, **kwargs)
    assert jit.exit_statuses == nojit.exit_statuses
    assert jit.counters() == nojit.counters()
    assert jit.tlb == nojit.tlb and jit.vm == nojit.vm
    assert jit.jit is not None and jit.jit["jit_steps"] > 0
    emit("E17: virtual bus (2 procs, timeshared) — stats identical",
         ["mode", "instructions", "CPI", "TLB hit", "page faults", "secs"],
         [("nojit", f"{nojit.instructions:,}", f"{nojit.cpi:.2f}",
           f"{nojit.tlb['hit_rate']:.1%}", str(nojit.vm["page_faults"]),
           f"{t_nojit:.2f}"),
          ("jit", f"{jit.instructions:,}", f"{jit.cpi:.2f}",
           f"{jit.tlb['hit_rate']:.1%}", str(jit.vm["page_faults"]),
           f"{t_jit:.2f}")],
         align_right=[False, True, True, True, True, True])
    emit_json(BENCH_SYSTEM, [{
        "experiment": "E17", "bus": "virtual",
        "instructions": jit.instructions,
        "secs_nojit": round(t_nojit, 4), "secs_jit": round(t_jit, 4),
    }])
