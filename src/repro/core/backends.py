"""Executor backends by name, and what this host can run.

The simulated machine answers *why* CPU-bound Python threads don't scale
(:class:`~repro.core.machine.GilConfig`); this module is the measured
side of the same ablation. Every backend is a
:class:`~repro.core.mp_backend.WorkerPool` of one kind — ``serial``,
``thread`` or ``process`` — so E19 can run the identical workload, with
identical chunking and :class:`~repro.core.metrics.OverheadBreakdown`
field meanings, on each.

Subinterpreters (PEP 734) are out of scope: they only run CPU-bound
Python in parallel with per-interpreter GILs (3.12+), and no supported
host has them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.core.mp_backend import BACKEND_NAMES, WorkerPool, available_cores

__all__ = ["BACKEND_NAMES", "BackendCapability", "get_backend",
           "gil_enabled", "probe_backends"]


def gil_enabled() -> bool:
    """Whether this interpreter runs under a GIL.

    ``sys._is_gil_enabled`` exists on 3.13+; older interpreters always
    have the GIL, so its absence means True.
    """
    probe = getattr(sys, "_is_gil_enabled", None)
    if probe is None:
        return True
    return bool(probe())


@dataclass(frozen=True)
class BackendCapability:
    """One row of :func:`probe_backends`."""
    name: str
    available: bool
    parallel: bool           # can it use >1 core for CPU-bound work?
    detail: str


def probe_backends() -> list[BackendCapability]:
    """What this host can actually run — one row per backend.

    Never raises: every backend is constructible, and the ``parallel``
    column says whether it can beat serial on CPU-bound work here.
    """
    free_threaded = not gil_enabled()
    cores = available_cores()
    return [
        BackendCapability("serial", True, False, "plain loop baseline"),
        BackendCapability(
            "thread", True, free_threaded,
            "free-threading build (no GIL): true parallelism"
            if free_threaded else
            f"GIL-bound on Python {sys.version_info.major}."
            f"{sys.version_info.minor}: concurrency without parallelism"),
        BackendCapability(
            "process", True, cores > 1,
            f"{cores} core(s) visible"
            + ("" if cores > 1 else ": parallel API, serial host")),
    ]


def get_backend(name: str, workers: int | None = None,
                **kwargs) -> WorkerPool:
    """A :class:`WorkerPool` of kind ``name`` (``serial`` / ``thread`` /
    ``process``); ``kwargs`` go to the pool (``start_method``,
    ``recorder``). Unknown names raise
    :class:`~repro.errors.ReproError` listing the valid ones."""
    return WorkerPool(workers, kind=name, **kwargs)
