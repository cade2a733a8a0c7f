"""E14 — vectorized trace engines vs their scalar oracles.

Three engines, one discipline: the batch path must produce bit-identical
aggregate statistics to the step-by-step teaching API, and this bench
records how much faster it gets there.

* cache  — ``Cache.simulate_trace`` (round-lockstep numpy engine; a
  skewed hot-loop trace replays its same-line runs through
  ``Cache.probe``) vs folding ``Cache.access`` over the same trace
  (``run_trace``).
* vm     — ``MMU.translate_many``, which runs ``MMU.replay`` (the
  MMU's one batch engine, collapsing resident TLB hits; the row keeps
  its ``translate_many`` label) vs a per-address ``access`` loop.
* isa    — the predecoded ``Machine.run`` handler table vs the
  ``step()`` interpreter.

Correctness is asserted on every run; timings are *recorded* (stdout +
BENCH_memory.json), never asserted, so the CI smoke run stays
deterministic on shared runners. ``E14_TRACE_LEN`` shrinks the trace
for smoke runs (default 100_000 accesses).
"""

import os
import pathlib
import random
import time

import numpy as np

from benchmarks._harness import BENCH_MEMORY, emit, emit_json
from repro.isa.assembler import assemble
from repro.isa.ccompiler import compile_c
from repro.isa.machine import Machine
from repro.memory import Cache, CacheConfig
from repro.vm import MMU, PhysicalMemory

TRACE_LEN = int(os.environ.get("E14_TRACE_LEN", "100000"))

CACHE_GEOMETRIES = [
    ("direct-mapped 32KB", CacheConfig(num_lines=1024, block_size=32)),
    ("4-way LRU 32KB",
     CacheConfig(num_lines=1024, block_size=32, associativity=4)),
    ("4-way FIFO write-through",
     CacheConfig(num_lines=1024, block_size=32, associativity=4,
                 replacement="fifo", write_policy="write-through")),
]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def make_cache_trace(n, seed=42, store_fraction=0.3):
    rng = random.Random(seed)
    span = 1 << 20
    kinds = ["store"] * int(n * store_fraction)
    kinds += ["load"] * (n - len(kinds))
    rng.shuffle(kinds)
    return [(rng.randrange(span), kind) for kind in kinds]


def make_hot_loop_trace(n, seed=42):
    """A compiled inner loop, the shape the JIT's cached bus replays:
    six fetches from two code lines, a stack slot loaded and stored,
    and a sweep over an array three times the 32KB caches' capacity.
    Long same-line runs crowd a few sets, so the associative engine
    replays it run head by run head through ``Cache.probe``."""
    rng = random.Random(seed)
    code, stack, array, span = 0x1000, 0x7FFF0, 0x100000, 3 * 32768
    trace = []
    i = 0
    while len(trace) < n:
        trace += [(pc, "load") for pc in range(code, code + 24, 4)]
        trace += [(stack, "load"), (stack, "store")]
        addr = array + (4 * i) % span
        if rng.random() < 0.3:
            trace.append((addr, "store"))
        trace.append((addr, "load"))
        i += 1
    return trace[:n]


def make_vm_trace(n, seed=1, page_size=4096, num_pages=64, run_len=8):
    rng = random.Random(seed)
    vaddrs, writes = [], []
    while len(vaddrs) < n:
        page = rng.randrange(num_pages)
        for _ in range(rng.randrange(1, run_len)):
            vaddrs.append(page * page_size + rng.randrange(page_size))
            writes.append(rng.random() < 0.25)
    return (np.asarray(vaddrs[:n], dtype=np.int64),
            np.asarray(writes[:n], dtype=bool))


def bench_cache():
    # loads-only traces exercise the pure simulation kernel (the store
    # bookkeeping is skipped wholesale); the mixed trace is the general case
    traces = [("loads", make_cache_trace(TRACE_LEN, store_fraction=0.0)),
              ("30% stores", make_cache_trace(TRACE_LEN))]
    # one small pass through both engines first, so the first timed row
    # doesn't pay numpy's lazy-initialization cost
    warm = make_cache_trace(1000, seed=7)
    for _, config in CACHE_GEOMETRIES:
        Cache(config).run_trace(warm)
        Cache(config).simulate_trace(warm)
    rows = []
    for label, config in CACHE_GEOMETRIES:
        for kind, trace in traces:
            scalar = Cache(config)
            _, scalar_s = _timed(lambda c=scalar: c.run_trace(trace))
            vector = Cache(config)
            _, vector_s = _timed(lambda c=vector: c.simulate_trace(trace))
            assert vector.stats == scalar.stats, label   # bit-identical
            rows.append((f"cache: {label}, {kind}",
                         len(trace), scalar_s, vector_s))
    label, config = CACHE_GEOMETRIES[1]     # 4-way LRU, write-back
    trace = make_hot_loop_trace(TRACE_LEN)
    scalar = Cache(config)
    _, scalar_s = _timed(lambda: scalar.run_trace(trace))
    vector = Cache(config)
    _, vector_s = _timed(lambda: vector.simulate_trace(trace))
    assert vector.stats == scalar.stats, label          # bit-identical
    rows.append((f"cache: {label}, hot loop", len(trace), scalar_s,
                 vector_s))
    return rows


def bench_vm():
    vaddrs, writes = make_vm_trace(TRACE_LEN)

    scalar = MMU(PhysicalMemory(16, 4096), page_size=4096, tlb_entries=16)
    scalar.create_process(1, 64)

    def scalar_loop():
        for v, w in zip(vaddrs.tolist(), writes.tolist()):
            scalar.access(v, write=w)
    _, scalar_s = _timed(scalar_loop)

    vector = MMU(PhysicalMemory(16, 4096), page_size=4096, tlb_entries=16)
    vector.create_process(1, 64)
    _, vector_s = _timed(lambda: vector.translate_many(vaddrs, writes=writes))

    assert vector.stats == scalar.stats
    assert vector.tlb.stats == scalar.tlb.stats
    return [("vm: translate_many", int(vaddrs.size), scalar_s, vector_s)]


def bench_isa():
    source = (pathlib.Path(__file__, "../../examples/c/sum.c")
              .resolve().read_text())
    program = assemble(compile_c(source))
    reps = max(1, TRACE_LEN // 1000)

    def step_loop():
        for _ in range(reps):
            m = Machine(program)
            while not m.halted:
                m.step()
        return m

    def run_loop():
        for _ in range(reps):
            m = Machine(program)
            m.run()
        return m

    m1, scalar_s = _timed(step_loop)
    m2, vector_s = _timed(run_loop)
    assert m2.regs.snapshot() == m1.regs.snapshot()
    assert m2.steps == m1.steps
    return [("isa: predecoded run()", m1.steps * reps, scalar_s, vector_s)]


def test_bench_vector_engines():
    rows = bench_cache() + bench_vm() + bench_isa()

    table = [(label, f"{n:,}", f"{scalar_s * 1e3:.1f}",
              f"{vector_s * 1e3:.1f}", f"{scalar_s / vector_s:.1f}x",
              f"{n / vector_s:,.0f}")
             for label, n, scalar_s, vector_s in rows]
    emit("E14: vectorized engines vs scalar oracles "
         f"(trace length {TRACE_LEN:,})",
         ["engine", "ops", "scalar ms", "vector ms", "speedup", "ops/s"],
         table, align_right=[False, True, True, True, True, True])

    emit_json(BENCH_MEMORY, [
        {"experiment": "E14", "engine": label, "ops": n,
         "scalar_s": round(scalar_s, 6), "vector_s": round(vector_s, 6),
         "speedup": round(scalar_s / vector_s, 2),
         "ops_per_s": round(n / vector_s),
         "trace_len": TRACE_LEN}
        for label, n, scalar_s, vector_s in rows])
