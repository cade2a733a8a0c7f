"""Executor backends: every pool kind behind one surface, and probing.

Correctness (identical results, order, breakdown invariants) holds on
any host; *speed* claims live in benchmarks/test_bench_gil.py where
they are gated on the host's actual capabilities.
"""

import sys

import pytest

from repro.core.backends import (
    BACKEND_NAMES,
    BackendCapability,
    get_backend,
    gil_enabled,
    probe_backends,
)
from repro.core.mp_backend import (
    WorkerPool,
    burn,
    last_breakdown,
    parallel_map,
)
from repro.core.partition import CHUNK_MODES
from repro.errors import ReproError

ITEMS = list(range(17))
EXPECTED = [burn(x) for x in ITEMS]


def all_pools():
    return [WorkerPool(2, kind=kind) for kind in BACKEND_NAMES]


class TestProtocol:
    @pytest.mark.parametrize("kind", BACKEND_NAMES)
    def test_common_surface(self, kind):
        backend = get_backend(kind, 2)
        try:
            assert isinstance(backend, WorkerPool)
            assert backend.kind == kind
            assert backend.workers == (1 if kind == "serial" else 2)
            assert backend.map(burn, [1, 2]) == [burn(1), burn(2)]
            assert backend.last_breakdown.wall > 0.0
        finally:
            backend.shutdown()

    def test_results_identical_across_backends(self):
        for backend in all_pools():
            with backend:
                for mode in CHUNK_MODES:
                    assert backend.map(burn, ITEMS,
                                       chunk_mode=mode) == EXPECTED

    @pytest.mark.parametrize("mode", CHUNK_MODES)
    def test_thread_backend_all_chunk_modes_ordered(self, mode):
        with get_backend("thread", 2) as backend:
            assert backend.map(burn, ITEMS, chunk_mode=mode) == EXPECTED

    def test_empty_input(self):
        for backend in all_pools():
            with backend:
                assert backend.map(burn, []) == []
                assert not backend.is_alive

    def test_bad_chunk_mode_rejected_everywhere(self):
        for backend in all_pools():
            with backend:
                with pytest.raises(ReproError):
                    backend.map(burn, [1, 2], chunk_mode="hash")

    def test_worker_validation(self):
        for kind in BACKEND_NAMES:
            with pytest.raises(ReproError):
                WorkerPool(0, kind=kind)

    def test_breakdown_invariant(self):
        """spawn + dispatch + compute/k + sync ≈ wall on every kind."""
        for backend in all_pools():
            with backend:
                backend.map(burn, [200_000] * 4)
                bd = backend.last_breakdown
                assert bd.wall > 0.0
                k = backend.workers
                model = bd.spawn + bd.dispatch + bd.compute / k + bd.sync
                # under the GIL compute/k understates elapsed compute on
                # threads, so sync absorbs the serialization; the model
                # may only *over*estimate wall via double-counted slop,
                # never undershoot by more than timer noise
                assert model >= bd.wall * 0.5

    def test_thread_backend_lazy_and_warm(self):
        """Thread and process workers start and stay warm alike."""
        for kind in ("thread", "process"):
            with WorkerPool(2, kind=kind) as backend:
                assert not backend.is_alive
                backend.map(burn, [10, 20, 30])
                assert backend.is_alive
                assert backend.spawn_count == 1
                backend.map(burn, [40, 50])
                assert backend.spawn_count == 1
                assert backend.last_breakdown.spawn == 0.0


class TestSerialBackend:
    def test_single_worker_and_pure_compute(self):
        backend = get_backend("serial")
        assert backend.workers == 1
        backend.map(burn, [1000, 2000])
        assert not backend.is_alive and backend.spawn_count == 0
        bd = backend.last_breakdown
        assert bd.wall == bd.compute > 0.0
        assert bd.spawn == bd.dispatch == bd.sync == 0.0


class TestProbe:
    def test_probe_covers_all_names_and_never_raises(self):
        caps = probe_backends()
        assert [c.name for c in caps] == list(BACKEND_NAMES)
        assert all(isinstance(c, BackendCapability) for c in caps)
        # every listed backend is constructible on every host
        assert all(c.available for c in caps)

    def test_gil_enabled_matches_sys_probe(self):
        probe = getattr(sys, "_is_gil_enabled", None)
        if probe is None:
            assert gil_enabled() is True
        else:
            assert gil_enabled() == bool(probe())

    def test_thread_parallelism_tracks_gil(self):
        by_name = {c.name: c for c in probe_backends()}
        assert by_name["thread"].parallel == (not gil_enabled())


class TestGetBackend:
    def test_unknown_name_lists_valid(self):
        with pytest.raises(ReproError) as err:
            get_backend("gpu")
        for name in BACKEND_NAMES:
            assert name in str(err.value)

    def test_by_name(self):
        for name in BACKEND_NAMES:
            backend = get_backend(name, 2)
            try:
                assert type(backend) is WorkerPool
                assert backend.kind == name
            finally:
                backend.shutdown()

    def test_subinterpreter_name_rejected(self):
        with pytest.raises(ReproError, match="unknown backend"):
            get_backend("subinterpreter", 2)


class TestParallelMapBackendParam:
    def test_backend_selection(self):
        for name in ("serial", "thread"):
            with get_backend(name, 2) as backend:
                assert parallel_map(burn, ITEMS, pool=backend) == EXPECTED
            assert last_breakdown().wall > 0.0

    def test_backend_none_is_process_path(self):
        assert parallel_map(burn, [3, 4], workers=1) == [burn(3), burn(4)]
