"""Unit tests for the simulated multicore machine."""

import pytest

from repro.core import (
    Barrier,
    BarrierWait,
    CondBroadcast,
    CondSignal,
    CondWait,
    Join,
    Lock,
    Mutex,
    Semaphore,
    SemPost,
    SemWait,
    SimMachine,
    SyncCosts,
    Unlock,
    Work,
)
from repro.errors import ConcurrencyError, DeadlockError, SyncUsageError

FREE = SyncCosts(lock=0, unlock=0, barrier=0, cond=0, sem=0, spawn=0)


def worker(cycles):
    yield Work(cycles)


class TestWorkScheduling:
    def test_one_thread_makespan(self):
        m = SimMachine(1, costs=FREE)
        m.spawn(worker, 100)
        assert m.run() == 100

    def test_two_threads_one_core_serialize(self):
        m = SimMachine(1, costs=FREE)
        m.spawn(worker, 100)
        m.spawn(worker, 100)
        assert m.run() == 200

    def test_two_threads_two_cores_overlap(self):
        m = SimMachine(2, costs=FREE)
        m.spawn(worker, 100)
        m.spawn(worker, 100)
        assert m.run() == 100

    def test_perfect_speedup_on_balanced_work(self):
        for cores in (1, 2, 4, 8, 16):
            m = SimMachine(cores, costs=FREE)
            for _ in range(cores):
                m.spawn(worker, 1000)
            m.run()
            assert m.speedup_vs_serial() == pytest.approx(cores)

    def test_imbalance_limits_speedup(self):
        m = SimMachine(2, costs=FREE)
        m.spawn(worker, 1000)
        m.spawn(worker, 10)
        m.run()
        assert m.makespan == 1000
        assert m.speedup_vs_serial() == pytest.approx(1010 / 1000)

    def test_more_threads_than_cores(self):
        m = SimMachine(2, costs=FREE)
        for _ in range(4):
            m.spawn(worker, 50)
        assert m.run() == 100

    def test_spawn_cost_counts(self):
        m = SimMachine(1, costs=SyncCosts(spawn=25, lock=0, unlock=0,
                                          barrier=0, cond=0, sem=0))
        m.spawn(worker, 100)
        assert m.run() == 125

    def test_utilization(self):
        m = SimMachine(2, costs=FREE)
        m.spawn(worker, 100)
        m.run()
        assert m.utilization() == pytest.approx(0.5)

    def test_zero_cores_rejected(self):
        with pytest.raises(ConcurrencyError):
            SimMachine(0)

    def test_negative_work_rejected(self):
        with pytest.raises(ConcurrencyError):
            Work(-1)

    def test_speedup_requires_run(self):
        with pytest.raises(ConcurrencyError):
            SimMachine(1).speedup_vs_serial()

    def test_speedup_after_zero_makespan_run_is_one(self):
        """Regression: a machine that *did* run but had makespan 0 (all
        work was zero-cost) used to raise "run() the machine first";
        the degenerate speedup is defined as 1.0 — serial would also
        take zero cycles."""
        m = SimMachine(2, costs=FREE)
        m.spawn(worker, 0)
        m.run()
        assert m.makespan == 0.0
        assert m.speedup_vs_serial() == 1.0

    def test_utilization_requires_run(self):
        """Regression: utilization() used to answer 0.0 for a machine
        that never ran, disagreeing with speedup_vs_serial() on the
        same not-run state."""
        with pytest.raises(ConcurrencyError):
            SimMachine(2).utilization()

    def test_utilization_after_zero_makespan_run_is_zero(self):
        m = SimMachine(2, costs=FREE)
        m.spawn(worker, 0)
        m.run()
        assert m.utilization() == 0.0

    def test_unknown_event_rejected(self):
        def bad():
            yield "what"
        m = SimMachine(1, costs=FREE)
        m.spawn(bad)
        with pytest.raises(ConcurrencyError, match="unknown event"):
            m.run()


class TestMutex:
    def test_mutual_exclusion_serializes(self):
        mu = Mutex("m")

        def critical():
            yield Lock(mu)
            yield Work(100)
            yield Unlock(mu)

        m = SimMachine(4, costs=FREE)
        for _ in range(4):
            m.spawn(critical)
        m.run()
        # the critical sections cannot overlap: makespan = 4 × 100
        assert m.makespan == pytest.approx(400)
        assert mu.acquisitions == 4

    def test_uncontended_lock_is_parallel(self):
        def independent():
            mu = Mutex()     # private lock: no contention
            yield Lock(mu)
            yield Work(100)
            yield Unlock(mu)

        m = SimMachine(4, costs=FREE)
        for _ in range(4):
            m.spawn(independent)
        assert m.run() == pytest.approx(100)

    def test_contention_cycles_recorded(self):
        mu = Mutex("m")

        def critical():
            yield Lock(mu)
            yield Work(50)
            yield Unlock(mu)

        m = SimMachine(2, costs=FREE)
        m.spawn(critical)
        m.spawn(critical)
        m.run()
        assert mu.contention_cycles > 0

    def test_relock_is_error(self):
        mu = Mutex()

        def bad():
            yield Lock(mu)
            yield Lock(mu)

        m = SimMachine(1, costs=FREE)
        m.spawn(bad)
        with pytest.raises(SyncUsageError, match="re-locking"):
            m.run()

    def test_unlock_unowned_is_error(self):
        mu = Mutex()

        def bad():
            yield Unlock(mu)

        m = SimMachine(1, costs=FREE)
        m.spawn(bad)
        with pytest.raises(SyncUsageError, match="does not hold"):
            m.run()

    def test_finish_holding_lock_is_error(self):
        mu = Mutex()

        def bad():
            yield Lock(mu)

        m = SimMachine(1, costs=FREE)
        m.spawn(bad)
        with pytest.raises(SyncUsageError, match="finished while holding"):
            m.run()

    def test_lock_cost_charged(self):
        mu = Mutex()

        def body():
            yield Lock(mu)
            yield Unlock(mu)

        m = SimMachine(1, costs=SyncCosts(lock=10, unlock=5, spawn=0,
                                          barrier=0, cond=0, sem=0))
        m.spawn(body)
        assert m.run() == 15


class TestBarrier:
    def test_barrier_synchronizes_rounds(self):
        bar = Barrier(2)
        log = []

        def staged(name, first, second):
            yield Work(first)
            log.append((name, "arrive"))
            yield BarrierWait(bar)
            log.append((name, "go"))
            yield Work(second)

        m = SimMachine(2, costs=FREE)
        m.spawn(staged, "fast", 10, 10)
        m.spawn(staged, "slow", 100, 10)
        m.run()
        # nobody proceeds before the slow one arrives
        assert m.makespan == pytest.approx(110)
        kinds = [k for _, k in log]
        assert kinds[:2] == ["arrive", "arrive"]

    def test_barrier_reusable_across_rounds(self):
        bar = Barrier(2)

        def rounds():
            for _ in range(3):
                yield Work(10)
                yield BarrierWait(bar)

        m = SimMachine(2, costs=FREE)
        m.spawn(rounds)
        m.spawn(rounds)
        m.run()
        assert bar.generation == 3

    def test_underfilled_barrier_deadlocks(self):
        bar = Barrier(3)

        def waiter():
            yield BarrierWait(bar)

        m = SimMachine(2, costs=FREE)
        m.spawn(waiter)
        m.spawn(waiter)
        with pytest.raises(DeadlockError):
            m.run()

    def test_barrier_cost(self):
        bar = Barrier(1)

        def body():
            yield BarrierWait(bar)

        m = SimMachine(1, costs=SyncCosts(barrier=30, lock=0, unlock=0,
                                          cond=0, sem=0, spawn=0))
        m.spawn(body)
        assert m.run() == 30

    def test_barrier_needs_parties(self):
        with pytest.raises(SyncUsageError):
            Barrier(0)


class TestConditionVariable:
    def test_wait_signal_handshake(self):
        mu = Mutex()
        cv = Barrier  # placeholder to appease linters
        from repro.core import ConditionVariable
        cond = ConditionVariable()
        state = {"ready": False}

        def waiter():
            yield Lock(mu)
            while not state["ready"]:
                yield CondWait(cond, mu)
            yield Unlock(mu)

        def signaler():
            yield Work(100)
            yield Lock(mu)
            state["ready"] = True
            yield CondSignal(cond)
            yield Unlock(mu)

        m = SimMachine(2, costs=FREE)
        m.spawn(waiter)
        m.spawn(signaler)
        m.run()   # completes: the waiter was woken
        assert cond.signals_sent == 1

    def test_signalled_waiter_contends_only_from_the_signal(self):
        """A condition wait is not mutex contention: a waiter signalled
        while the mutex is held contends from the signal on, though it
        stays blocked from the start of its condition wait."""
        mu = Mutex()
        from repro.core import ConditionVariable
        cond = ConditionVariable()

        def consumer():
            yield Lock(mu)
            yield CondWait(cond, mu)
            yield Unlock(mu)

        def producer():
            yield Work(1000)
            yield Lock(mu)
            yield CondSignal(cond)
            yield Work(10)           # the waiter needs the mutex meanwhile
            yield Unlock(mu)

        m = SimMachine(2, costs=FREE)
        waiter = m.spawn(consumer)
        m.spawn(producer)
        m.run()
        assert mu.contention_cycles == 10.0
        assert waiter.blocked_cycles == 1010.0

    def test_wait_without_mutex_is_error(self):
        mu = Mutex()
        from repro.core import ConditionVariable
        cond = ConditionVariable()

        def bad():
            yield CondWait(cond, mu)

        m = SimMachine(1, costs=FREE)
        m.spawn(bad)
        with pytest.raises(SyncUsageError, match="without holding"):
            m.run()

    def test_broadcast_wakes_all(self):
        mu = Mutex()
        from repro.core import ConditionVariable
        cond = ConditionVariable()
        state = {"go": False}

        def waiter():
            yield Lock(mu)
            while not state["go"]:
                yield CondWait(cond, mu)
            yield Unlock(mu)

        def broadcaster():
            yield Work(50)
            yield Lock(mu)
            state["go"] = True
            yield CondBroadcast(cond)
            yield Unlock(mu)

        m = SimMachine(4, costs=FREE)
        for _ in range(3):
            m.spawn(waiter)
        m.spawn(broadcaster)
        m.run()

    def test_lost_signal_deadlocks(self):
        """Signal before wait is lost — the classic condvar bug."""
        mu = Mutex()
        from repro.core import ConditionVariable
        cond = ConditionVariable()

        def signaler():
            yield CondSignal(cond)   # nobody waiting yet

        def waiter():
            yield Work(100)          # arrives late
            yield Lock(mu)
            yield CondWait(cond, mu)
            yield Unlock(mu)

        m = SimMachine(2, costs=FREE)
        m.spawn(signaler)
        m.spawn(waiter)
        with pytest.raises(DeadlockError):
            m.run()


class TestSemaphore:
    def test_counting(self):
        sem = Semaphore(2)

        def user():
            yield SemWait(sem)
            yield Work(100)
            yield SemPost(sem)

        m = SimMachine(4, costs=FREE)
        for _ in range(4):
            m.spawn(user)
        m.run()
        # at most 2 inside at once → two waves of 100
        assert m.makespan == pytest.approx(200)
        assert sem.value == 2

    def test_zero_semaphore_blocks_until_post(self):
        sem = Semaphore(0)

        def waiter():
            yield SemWait(sem)
            yield Work(10)

        def poster():
            yield Work(100)
            yield SemPost(sem)

        m = SimMachine(2, costs=FREE)
        m.spawn(waiter)
        m.spawn(poster)
        m.run()
        assert m.makespan == pytest.approx(110)

    def test_negative_initial_rejected(self):
        with pytest.raises(SyncUsageError):
            Semaphore(-1)


class TestJoin:
    def test_join_waits_for_target(self):
        m = SimMachine(2, costs=FREE)
        long = m.spawn(worker, 500)

        def joiner():
            yield Join(long)
            yield Work(10)

        m.spawn(joiner)
        m.run()
        assert m.makespan == pytest.approx(510)

    def test_join_finished_thread_is_instant(self):
        m = SimMachine(1, costs=FREE)
        quick = m.spawn(worker, 10)

        def late_joiner():
            yield Work(100)
            yield Join(quick)

        m.spawn(late_joiner)
        assert m.run() == pytest.approx(110)

    def test_self_join_rejected(self):
        m = SimMachine(1, costs=FREE)
        holder = {}

        def selfish():
            yield Join(holder["me"])

        holder["me"] = m.spawn(selfish)
        with pytest.raises(SyncUsageError, match="joining itself"):
            m.run()
