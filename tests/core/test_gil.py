"""The GIL model: cpu-bound serialization, io overlap, convoy effect.

These pin the rohan-varma/python-gil measurements deterministically:
cpu-bound threads don't scale (the GIL serializes bytecode), io-bound
threads still overlap (blocking I/O releases the lock), and an io
thread behind a cpu hog waits up to a switch interval per round trip
(the convoy effect).
"""

import pytest

from repro.core import (
    BarrierWait,
    Barrier,
    GilConfig,
    GilStats,
    IoWait,
    Lock,
    Mutex,
    SimMachine,
    SyncCosts,
    Unlock,
    Work,
    run_threads,
)
from repro.errors import ConcurrencyError, DeadlockError, SyncUsageError

FREE = SyncCosts(lock=0, unlock=0, barrier=0, cond=0, sem=0, spawn=0)
GIL = GilConfig(switch_interval_cycles=100, acquire_cost=0)


def cpu(n):
    yield Work(n)


def io_loop(rounds, work, wait):
    for _ in range(rounds):
        yield Work(work)
        yield IoWait(wait)


class TestGilConfig:
    def test_validation(self):
        with pytest.raises(ConcurrencyError):
            GilConfig(switch_interval_cycles=0)
        with pytest.raises(ConcurrencyError):
            GilConfig(switch_interval_cycles=-1)
        with pytest.raises(ConcurrencyError):
            GilConfig(acquire_cost=-1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConcurrencyError):
                GilConfig(switch_interval_cycles=bad)
            with pytest.raises(ConcurrencyError):
                GilConfig(acquire_cost=bad)
        with pytest.raises(ConcurrencyError):
            IoWait(-1)

    def test_default_machine_has_no_gil(self):
        m = SimMachine(2)
        assert m.gil is None
        assert m.gil_stats == GilStats()


class TestCpuBound:
    def test_two_threads_two_cores_do_not_scale(self):
        """The headline: 2 cpu-bound threads on 2 cores run exactly as
        long as 1 thread doing both jobs — speedup 1.0, not 2.0."""
        m = SimMachine(2, costs=FREE, gil=GIL)
        m.spawn(cpu, 1000)
        m.spawn(cpu, 1000)
        m.run()
        assert m.makespan == 2000.0
        assert m.speedup_vs_serial() == pytest.approx(1.0)
        assert m.gil_stats.hold_cycles == 2000.0
        assert m.gil_stats.slices == 20          # 2 × Work(1000) / 100

    def test_same_program_without_gil_scales(self):
        m = SimMachine(2, costs=FREE)
        m.spawn(cpu, 1000)
        m.spawn(cpu, 1000)
        m.run()
        assert m.makespan == 1000.0
        assert m.speedup_vs_serial() == pytest.approx(2.0)

    def test_four_threads_speedup_at_most_one(self):
        """The E19 acceptance shape: ≤ 1.1 at 4 threads (handoff costs
        push it *below* 1)."""
        m = SimMachine(4, costs=FREE,
                       gil=GilConfig(switch_interval_cycles=100,
                                     acquire_cost=5))
        for _ in range(4):
            m.spawn(cpu, 500)
        m.run()
        assert m.speedup_vs_serial() <= 1.1
        assert m.makespan >= 2000.0      # serial work + acquire costs

    def test_solo_thread_never_hands_off(self):
        m = SimMachine(1, costs=FREE, gil=GIL)
        m.spawn(cpu, 1000)
        m.run()
        assert m.makespan == 1000.0
        assert m.gil_stats.handoffs == 0
        assert m.gil_stats.slices == 10
        assert m.gil_stats.acquisitions == 1

    def test_holders_alternate_fifo(self):
        """Contended slices interleave round-robin at the interval."""
        m = SimMachine(2, costs=FREE, gil=GIL)
        m.spawn(cpu, 300, name="a")
        m.spawn(cpu, 300, name="b")
        m.run()
        order = [name for _, name, _, _ in m.timeline]
        assert order == ["a", "b", "a", "b", "a", "b"]
        starts = [s for _, _, s, _ in m.timeline]
        assert starts == [0.0, 100.0, 200.0, 300.0, 400.0, 500.0]

    def test_acquire_cost_charged_per_grant(self):
        m = SimMachine(1, costs=FREE,
                       gil=GilConfig(switch_interval_cycles=1000,
                                     acquire_cost=7))
        m.spawn(cpu, 100)
        m.run()
        assert m.makespan == 107.0


class TestIoBound:
    def test_io_pair_overlaps_under_gil(self):
        """I/O releases the GIL, so two io-bound threads finish in
        barely more than one thread's span — the lesson that threads
        are still useful for io-bound Python."""
        solo = SimMachine(1, costs=FREE, gil=GIL)
        solo.spawn(io_loop, 4, 10, 500)
        solo.run()
        pair = SimMachine(1, costs=FREE, gil=GIL)
        pair.spawn(io_loop, 4, 10, 500)
        pair.spawn(io_loop, 4, 10, 500)
        pair.run()
        assert solo.makespan == 2040.0
        assert pair.makespan == 2050.0       # +10: one work slice skew
        assert pair.makespan < 1.1 * solo.makespan
        assert pair.gil_stats.io_cycles == 4000.0

    def test_io_cycles_not_counted_as_work(self):
        m = SimMachine(1, costs=FREE, gil=GIL)
        m.spawn(io_loop, 2, 10, 100)
        m.run()
        assert m.total_work_cycles == 20.0
        assert m.threads[0].io_cycles == 200.0

    def test_work_io_flag_equivalent_to_iowait(self):
        def with_flag():
            yield Work(10)
            yield Work(500, io=True)
            yield Work(10)

        def with_event():
            yield Work(10)
            yield IoWait(500)
            yield Work(10)

        for gil in (None, GIL):
            a = SimMachine(1, costs=FREE, gil=gil)
            a.spawn(with_flag)
            a.run()
            b = SimMachine(1, costs=FREE, gil=gil)
            b.spawn(with_event)
            b.run()
            assert a.makespan == b.makespan == 520.0
            assert a.threads[0].io_cycles == 500.0

    def test_io_overlaps_beyond_cores_without_gil(self):
        """Blocked-in-the-kernel threads occupy no core: 4 io waits
        overlap on a single-core no-GIL machine too."""
        m = SimMachine(1, costs=FREE)
        for _ in range(4):
            m.spawn(io_loop, 1, 0, 1000)
        m.run()
        assert m.makespan == 1000.0


class TestConvoy:
    def test_convoy_effect_timeline_pinned(self):
        """An io thread behind a cpu hog: every io completion waits for
        the hog's next slice boundary (up to a full switch interval +
        acquire), inflating the 60-cycle round trip to 120 cycles.

        Derivation with interval=100, acquire=5: hog granted at 0 runs
        [5, 105); the io thread (queued since 0) is handed the lock at
        105, works [110, 120), starts io at 120 which completes at 170;
        the hog re-acquires at 120 and slices [125, 225); the io thread
        re-queues at 170 but only runs at [230, 240) — and so on every
        120 cycles instead of every 60.
        """
        m = SimMachine(2, costs=FREE,
                       gil=GilConfig(switch_interval_cycles=100,
                                     acquire_cost=5))
        m.spawn(cpu, 2000, name="hog")
        m.spawn(io_loop, 4, 10, 50, name="io")
        m.run()
        io_segments = [(s, e) for _, name, s, e in m.timeline
                       if name == "io"]
        assert io_segments == [(110.0, 120.0), (230.0, 240.0),
                               (350.0, 360.0), (470.0, 480.0)]
        assert m.makespan == 2095.0

    def test_io_round_trip_without_hog(self):
        """Baseline for the convoy: alone, the io thread's round trip
        is work + io = 60 cycles, not 120."""
        m = SimMachine(2, costs=FREE,
                       gil=GilConfig(switch_interval_cycles=100,
                                     acquire_cost=5))
        m.spawn(io_loop, 4, 10, 50, name="io")
        m.run()
        io_segments = [(s, e) for _, name, s, e in m.timeline
                       if name == "io"]
        assert io_segments == [(5.0, 15.0), (70.0, 80.0),
                               (135.0, 145.0), (200.0, 210.0)]


class TestGilSync:
    def test_mutex_contention_under_gil(self):
        mu = Mutex("m")

        def critical():
            yield Lock(mu)
            yield Work(100)
            yield Unlock(mu)

        m = SimMachine(4, costs=FREE, gil=GIL)
        for _ in range(4):
            m.spawn(critical)
        m.run()
        assert m.makespan == pytest.approx(400.0)
        assert mu.acquisitions == 4

    def test_barrier_under_gil(self):
        bar = Barrier(2)

        def staged(first, second):
            yield Work(first)
            yield BarrierWait(bar)
            yield Work(second)

        m = SimMachine(2, costs=FREE, gil=GIL)
        m.spawn(staged, 50, 50)
        m.spawn(staged, 150, 50)
        m.run()
        # serialized compute: 50 + 150 before the barrier, then 2 × 50
        assert m.makespan == pytest.approx(300.0)
        assert bar.generation == 1

    def test_deadlock_still_detected_under_gil(self):
        """Work(150) crosses the 100-cycle quantum, so the lock-order
        interleaving happens and the wait-for cycle is still raised.
        (With Work < the interval, each critical section runs atomically
        within one quantum and the GIL *prevents* this deadlock — a
        real CPython phenomenon worth knowing about.)"""
        a, b = Mutex("a"), Mutex("b")

        def ab():
            yield Lock(a)
            yield Work(150)
            yield Lock(b)
            yield Unlock(b)
            yield Unlock(a)

        def ba():
            yield Lock(b)
            yield Work(150)
            yield Lock(a)
            yield Unlock(a)
            yield Unlock(b)

        m = SimMachine(2, costs=FREE, gil=GIL)
        m.spawn(ab)
        m.spawn(ba)
        with pytest.raises(DeadlockError):
            m.run()

    def test_finish_holding_lock_still_error_under_gil(self):
        mu = Mutex()

        def bad():
            yield Lock(mu)

        m = SimMachine(1, costs=FREE, gil=GIL)
        m.spawn(bad)
        with pytest.raises(SyncUsageError, match="finished while holding"):
            m.run()

    def test_run_threads_gil_passthrough(self):
        machine = run_threads([(cpu, (500,)), (cpu, (500,))],
                              num_cores=2, costs=FREE, gil=GIL)
        assert machine.makespan == 1000.0


class TestGilObs:
    def test_holder_spans_and_handoff_instants(self):
        from repro.obs.recorder import TraceRecorder
        rec = TraceRecorder()
        m = SimMachine(2, costs=FREE, gil=GIL, recorder=rec)
        m.spawn(cpu, 300, name="a")
        m.spawn(cpu, 300, name="b")
        m.run()
        events = rec.events()
        holders = [e for e in events if e.tid == "GIL" and e.ph == "X"]
        handoffs = [e for e in events if e.name == "gil-handoff"]
        assert {e.name for e in holders} == {"a", "b"}
        assert sum(e.dur for e in holders) == 600.0
        # instants cover every grant-to-a-waiter: the 6 quantum
        # preemptions counted in gil_stats.handoffs plus the final
        # finish-release that passes the lock on
        assert len(handoffs) == 7
        assert len(handoffs) >= m.gil_stats.handoffs
        assert handoffs[0].args["from"] != handoffs[0].args["to"]

    def test_traced_schedule_identical_to_untraced(self):
        from repro.obs.recorder import TraceRecorder

        def program(machine):
            machine.spawn(io_loop, 3, 20, 80, name="io")
            machine.spawn(cpu, 700, name="hog")

        plain = SimMachine(2, costs=FREE, gil=GIL)
        program(plain)
        plain.run()
        traced = SimMachine(2, costs=FREE, gil=GIL,
                            recorder=TraceRecorder())
        program(traced)
        traced.run()
        assert traced.makespan == plain.makespan
        assert traced.timeline == plain.timeline
        assert traced.gil_stats == plain.gil_stats
