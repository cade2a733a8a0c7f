"""The host-speed reference: a fixed pure-Python kernel and its nominal time.

The benchmark's host shares its vCPUs with other tenants, and a vCPU
slows down by up to 3x, in phases from about a second to minutes. Every
timing the benchmark reports is therefore scaled by how fast this kernel
ran on the same vCPU at the same moment, relative to ``NOMINAL_REF_MS``:

* a time ``t`` becomes ``t * NOMINAL_REF_MS / ref_ms`` ("ms on the
  nominal host");
* a rate ``r`` becomes ``r * ref_ms / NOMINAL_REF_MS``.

The kernel is the interpreter-bound core of the simulator's hot loops:
dict lookups, list indexing, integer arithmetic and bit operations, and
small function calls, on a working set that fits in the L1 cache. A
kernel that also scattered reads over a few MB tracked the simulator
worse: under heavy contention it slowed down almost 3x while the
simulator slowed down 1.6x. The kernel never imports the program.
"""

from __future__ import annotations

import time

#: median kernel time in ms on a quiet vCPU of the reference host (a
#: 2-vCPU x86-64 cloud VM, CPython 3.11). Changing it rescales every
#: normalised metric, so it is fixed for the life of the benchmark.
NOMINAL_REF_MS = 2.0


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def reference_kernel() -> int:
    """One fixed unit of interpreter work; returns a checksum."""
    table: dict[int, int] = {}
    regs = [0] * 8
    acc = 0
    for i in range(6000):
        k = i & 63
        table[k] = table.get(k, 0) + i
        regs[i & 7] = _mix(regs[(i + 1) & 7], k)
        acc = (acc + regs[i & 7] * 7) ^ (acc >> 3)
    return acc + len(table)


def time_reference() -> float:
    """Run the kernel once; returns its wall time in ms."""
    t0 = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - t0) * 1e3
