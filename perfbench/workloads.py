"""Seeded request generators for the four E21 workloads.

``generate(workload, seed)`` expands a seed into one *pass*: a fixed list
of requests, each a plain JSON-able dict. The program under test only
ever sees these dicts (C sources, thread scripts, grids, address lists),
never the seed. A run repeats the same pass, so every pass does identical
work and percentiles always land on the same requests.

What each request slot costs is fixed for every seed: program template,
trip counts, array and working-set sizes, and process, thread and node
counts come from the tables below or from a *shape* random stream that
is the same for every seed (fuzz-program structure, thread-script
actions). The *value* stream comes from the seed: constants, initial
data, cycle costs, grid cells, addresses. So a new seed gives new
programs and new outputs to check, while the amount of work per pass,
and with it every end-to-end metric, stays put. Slots are also balanced
to cost about the same, so many requests sit around each percentile.

Why each workload exists is recorded in ``WHY`` (and BENCHMARK.json).
"""

from __future__ import annotations

import hashlib
import json
import random

#: one line per workload, the same text as BENCHMARK.json
WHY = {
    "run-cached": "hot C loops on the cached bus with the JIT, arrays from "
                  "inside L1 to past L2: JIT blocks and the batched cache "
                  "engine, no MMU or kernel (control for MMU changes)",
    "run-virtual": "the same C generator as 2-4 timeshared processes on the "
                   "virtual bus, working sets either side of TLB reach and of "
                   "the 64 frames: MMU translation and kernel dispatch",
    "compile-burst": "many short programs in the optimizer fuzz grammar with "
                     "opt=True on the flat bus: C front end, assembler, "
                     "optimizer and validator, JIT compile",
    "sim-parallel": "ParallelLife with and without a GIL, seeded thread "
                    "programs, 1-8 node ClusterLife and map_reduce_translate "
                    "shards: SimMachine, network, Life, batched MMU",
}

WORKLOADS = tuple(WHY)

#: first byte of the heap region in the standard address space: the
#: virtual-bus programs stride pages there to size their working set
HEAP_BASE = 0x0900_0000
PAGE = 4096


# -- C program templates -----------------------------------------------------
# Every template is a terminating, fault-free program in the course C
# subset whose exit status depends on all the work it did. Arguments fix
# the cost; ``v`` (the seed's value stream) only picks constants.

def nested_loops(v: random.Random, outer: int, inner: int) -> str:
    return f"""int main() {{
    int total = {v.randint(0, 99)};
    for (int i = 0; i < {outer}; i = i + 1) {{
        for (int j = 0; j < {inner}; j = j + 1) {{
            total = total + i * j + {v.randint(1, 9)};
        }}
    }}
    return total % 251;
}}
"""


def stride_copy(v: random.Random, n: int, stride: int, passes: int) -> str:
    return f"""int main() {{
    int src[{n}];
    int dst[{n}];
    for (int i = 0; i < {n}; i = i + 1) {{
        src[i] = i * {v.randint(2, 7)};
    }}
    int sum = 0;
    for (int pass = 0; pass < {passes}; pass = pass + 1) {{
        for (int s = 0; s < {stride}; s = s + 1) {{
            for (int i = s; i < {n}; i = i + {stride}) {{
                dst[i] = src[i] + pass;
            }}
        }}
        sum = sum + dst[(pass * {v.randint(1, 9)}) % {n}];
    }}
    return sum % 256;
}}
"""


def insertion_sort(v: random.Random, n: int) -> str:
    # a strictly descending start: always the quadratic worst case
    return f"""int main() {{
    int a[{n}];
    for (int i = 0; i < {n}; i = i + 1) {{
        a[i] = ({n} - i) * {v.randint(1, 9)} + {v.randint(0, 50)};
    }}
    for (int i = 1; i < {n}; i = i + 1) {{
        int key = a[i];
        int j = i - 1;
        while (j >= 0 && a[j] > key) {{
            a[j + 1] = a[j];
            j = j - 1;
        }}
        a[j + 1] = key;
    }}
    int check = 0;
    for (int i = 0; i < {n}; i = i + 1) {{
        check = check + a[i] * (i + {v.randint(1, 5)});
    }}
    return check % 256;
}}
"""


def column_sum(v: random.Random, rows: int, cols: int, reps: int) -> str:
    # a row-major matrix summed column by column: the locality lab
    return f"""int main() {{
    int m[{rows * cols}];
    for (int i = 0; i < {rows * cols}; i = i + 1) {{
        m[i] = i % {v.randint(5, 13)};
    }}
    int total = 0;
    for (int r = 0; r < {reps}; r = r + 1) {{
        for (int c = 0; c < {cols}; c = c + 1) {{
            for (int i = 0; i < {rows}; i = i + 1) {{
                total = total + m[i * {cols} + c];
            }}
        }}
    }}
    return total % 256;
}}
"""


def page_stride(v: random.Random, pages: int, sweeps: int) -> str:
    # one store and load per heap page per sweep: the working set is
    # ``pages`` heap pages plus text and stack
    offset = v.randrange(PAGE // 4) * 4
    return f"""int main() {{
    int base = {HEAP_BASE + offset};
    int s = {v.randint(0, 99)};
    for (int r = 0; r < {sweeps}; r = r + 1) {{
        for (int k = 0; k < {pages}; k = k + 1) {{
            int p = base + k * {PAGE};
            *p = *p + k + r;
            s = s + *p;
        }}
    }}
    return s % 256;
}}
"""


def _isa(bus: str, source: str, *, procs: int = 1, jit: bool = True,
         opt: bool = False) -> dict:
    return {"kind": "isa", "bus": bus, "procs": procs, "jit": jit,
            "opt": opt, "source": source}


def _run_cached(shape: random.Random, v: random.Random) -> list[dict]:
    # arrays from 256 B (inside the 1 KiB L1) to 2 x 4 KiB (past the
    # 4 KiB L2), strides that do and do not reuse 16-byte lines; trip
    # counts are balanced so every request costs about the same, which
    # puts many requests, not one or two, around each percentile
    programs = [
        nested_loops(v, 20, 40),
        stride_copy(v, 64, 1, 9),
        insertion_sort(v, 24),
        column_sum(v, 8, 16, 5),
        nested_loops(v, 28, 42),
        stride_copy(v, 256, 4, 3),
        insertion_sort(v, 28),
        column_sum(v, 16, 32, 1),
        nested_loops(v, 30, 43),
        stride_copy(v, 1024, 1, 1),
        insertion_sort(v, 20),
        column_sum(v, 32, 24, 1),
    ]
    return [_isa("cached", source) for source in programs]


#: run-virtual's interpreted hot-loop slots: (template, args, processes)
_VIRTUAL_LOOPS = (
    (nested_loops, (4, 10), 2),
    (stride_copy, (24, 1, 1), 2),
    (insertion_sort, (7,), 2),
    (column_sum, (4, 6, 1), 3),
    (nested_loops, (3, 10), 4),
    (stride_copy, (32, 1, 1), 2),
    (column_sum, (4, 6, 1), 2),
    (insertion_sort, (5,), 3),
)

#: run-virtual's page-stride slots: (heap pages, sweeps, processes). 6
#: pages stay inside the 16-entry TLB's reach, 20 do not; 4 processes x
#: (20 + text + stack) pages exceed the 64 frames
_VIRTUAL_PAGES = (
    (6, 4, 2), (20, 1, 2), (6, 3, 3), (20, 1, 4),
    (6, 2, 4), (20, 1, 2), (6, 4, 2), (20, 1, 4),
)


def _run_virtual(shape: random.Random, v: random.Random) -> list[dict]:
    # With 2-4 processes each compiling its own superblocks, a short JIT
    # run is dominated by compiling (0.2 s and more per request), so most
    # requests interpret: per-access MMU translation and kernel dispatch
    # then dominate. Four requests keep the JIT on, so block replay
    # through replay_block_for and translate_many is measured too; they
    # are the pass's slowest fifth, alike in cost, so p90 falls among them.
    loops = iter(_VIRTUAL_LOOPS)
    pages = iter(_VIRTUAL_PAGES)
    reqs = []
    for i in range(20):
        if i % 5 == 4:
            reqs.append(_isa("virtual", nested_loops(v, 4 + i // 5, 10),
                             procs=2))
        elif i % 2:
            n_pages, sweeps, procs = next(pages)
            reqs.append(_isa("virtual", page_stride(v, n_pages, sweeps),
                             procs=procs, jit=False))
        else:
            template, args, procs = next(loops)
            reqs.append(_isa("virtual", template(v, *args), procs=procs,
                             jit=False))
    return reqs


def fuzz_source(shape: random.Random, v: random.Random) -> str:
    """A program in the optimizer fuzz grammar, three helpers long (a
    fixed size keeps the requests' costs close together)."""
    helpers = 3
    lines: list[str] = []
    for h in range(helpers):
        lines += [
            f"int helper{h}(int x, int y) {{",
            f"    int t = x * {v.randint(1, 5)} + y;",
        ]
        if shape.random() < 0.7:
            lines += [
                f"    if (t > {v.randint(0, 40)}) {{",
                f"        t = t - {v.randint(1, 9)};",
                "    } else {",
                f"        t = t + {v.randint(1, 9)};",
                "    }",
            ]
        lines += [
            f"    return t % {v.randint(3, 9)} + t / {v.randint(2, 7)};",
            "}",
            "",
        ]
    n = shape.randint(4, 8)
    lines += [
        "int main() {",
        f"    int a[{n}];",
        "    int s = 0;",
        f"    for (int i = 0; i < {n}; i = i + 1) {{",
        f"        a[i] = i * {v.randint(1, 7)} + {v.randint(0, 9)};",
        "    }",
    ]
    for h in range(helpers):
        lines += [
            f"    int j{h} = 0;",
            f"    while (j{h} < {n}) {{",
            f"        s = s + helper{h}(a[j{h}], j{h}) * {v.randint(1, 3)};",
            f"        j{h} = j{h} + 1;",
            "    }",
        ]
    lines += [
        "    int p = &s;",
        f"    *p = *p + {v.randint(1, 20)};",
    ]
    if shape.random() < 0.5:
        lines += [
            f"    if (s % {v.randint(2, 5)} == 0) {{",
            f"        s = s + a[{v.randint(0, n - 1)}];",
            "    }",
        ]
    lines += ["    return s % 256;", "}"]
    return "\n".join(lines) + "\n"


def _compile_burst(shape: random.Random, v: random.Random) -> list[dict]:
    return [_isa("flat", fuzz_source(shape, v), opt=True) for _ in range(32)]


# -- sim-parallel --------------------------------------------------------------

def _grid(v: random.Random, n: int) -> list[str]:
    return ["".join("1" if v.random() < 0.35 else "0" for _ in range(n))
            for _ in range(n)]


#: the small-interval interpreter lock: (switch interval, acquire cost)
SMALL_GIL = [40.0, 5.0]


def thread_program(shape: random.Random, v: random.Random,
                   n_threads: int, rounds: int, gil: bool) -> dict:
    """A deadlock-free thread program in the style of the GIL oracle's
    fuzz bodies, scaled up: lock/unlock and sem pairs never nest, every
    thread passes the barrier equally often, joins target lower ids."""
    scripts: list[list[list]] = []
    for tid in range(n_threads):
        script: list[list] = []
        for round_no in range(rounds + 1):
            for _ in range(shape.randint(20, 40)):
                kind = shape.randrange(5)
                if kind == 0:
                    script.append(["work", float(v.randint(0, 300))])
                elif kind == 1:
                    script.append(["access", v.choice(["x", "y"]),
                                   v.choice(["read", "write"])])
                elif kind == 2:
                    script += [["lock"], ["work", float(v.randint(0, 50))],
                               ["unlock"]]
                elif kind == 3:
                    script += [["sem_wait"], ["work", float(v.randint(0, 50))],
                               ["sem_post"]]
                else:
                    script.append(["io", float(v.randint(10, 200))])
            if round_no < rounds:
                script.append(["barrier"])
        if tid > 0 and shape.random() < 0.4:
            script.append(["join", shape.randrange(tid)])
        scripts.append(script)
    return {"kind": "threads", "cores": shape.randint(1, 4),
            "costs": {"lock": float(v.choice([0, 5, 10])),
                      "unlock": float(v.choice([0, 5])),
                      "barrier": float(v.choice([0, 25, 50])),
                      "cond": 10.0,
                      "sem": float(v.choice([0, 10])),
                      "spawn": float(v.choice([0, 100]))},
            "gil": SMALL_GIL if gil else None, "scripts": scripts}


def _sim_parallel(shape: random.Random, v: random.Random) -> list[dict]:
    # sizes are balanced so each request costs roughly the same
    reqs: list[dict] = []
    for i in range(8):
        gil = i % 2 == 1
        threads = (4, 8, 12, 16)[i % 4]
        reqs.append({"kind": "parallel_life", "grid": _grid(v, 64),
                     "threads": threads, "rounds": 112 // threads,
                     "gil": SMALL_GIL if gil else None})
        reqs.append(thread_program(shape, v, 6, 20 if gil else 28, gil))
        reqs.append({"kind": "cluster_life",
                     "grid": _grid(v, (64, 96, 128)[i % 3]),
                     "nodes": 1 + i, "rounds": 400 // (1 + i)})
        pages = (12, 24, 48, 96)[i % 4]
        vaddrs = [v.randrange(pages) * PAGE + v.randrange(PAGE)
                  for _ in range(6000)]
        reqs.append({"kind": "map_reduce", "vaddrs": vaddrs, "nodes": 8 - i,
                     "schedule": ("block", "cyclic", "dynamic")[i % 3]})
    return reqs


_GENERATORS = {
    "run-cached": _run_cached,
    "run-virtual": _run_virtual,
    "compile-burst": _compile_burst,
    "sim-parallel": _sim_parallel,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The request list (one pass) of ``workload`` for ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(choose from {', '.join(WORKLOADS)})")
    shape = random.Random(f"shape:{workload}")
    values = random.Random(f"{workload}:{seed}")
    reqs = _GENERATORS[workload](shape, values)
    for i, req in enumerate(reqs):
        req["id"] = i
    return reqs


def digest(requests: list[dict]) -> str:
    """SHA-256 of a request list, to tie goldens to generator output."""
    blob = json.dumps(requests, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
