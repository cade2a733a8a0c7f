"""Synchronization primitives: mutex, barrier, condition variable, semaphore.

"In discussing synchronization primitives, we focus on the primitives
provided by pthreads: mutex locks, barriers, and condition variables"
(§III-A, *Shared Memory Parallelism*). These objects hold the state; the
blocking/waking *semantics* are executed by
:class:`~repro.core.machine.SimMachine`, which owns simulated time.

Misuse that crashes or corrupts real pthreads programs raises
:class:`~repro.errors.SyncUsageError` here (unlock of a mutex you don't
hold, waiting on a condition without the mutex, ...).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SyncUsageError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import SimThread


@dataclass
class Mutex:
    """pthread_mutex_t."""
    name: str = "mutex"
    owner: "SimThread | None" = None
    #: (thread, time it started waiting for this mutex) in FIFO order
    waiters: deque = field(default_factory=deque)
    #: aggregate cycles threads spent blocked on this mutex
    contention_cycles: float = 0.0
    acquisitions: int = 0

    @property
    def locked(self) -> bool:
        return self.owner is not None

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        who = self.owner.name if self.owner else None
        return f"Mutex({self.name!r}, owner={who!r})"


@dataclass
class Barrier:
    """pthread_barrier_t initialised for ``parties`` threads."""
    parties: int
    name: str = "barrier"
    arrived: list = field(default_factory=list)
    #: completed barrier episodes (used as a happens-before epoch)
    generation: int = 0

    def __post_init__(self) -> None:
        if self.parties < 1:
            raise SyncUsageError("barrier needs at least one party")

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return (f"Barrier({self.name!r}, {len(self.arrived)}/"
                f"{self.parties})")


@dataclass
class ConditionVariable:
    """pthread_cond_t (Mesa semantics: signalled waiters re-acquire)."""
    name: str = "cond"
    waiters: deque = field(default_factory=deque)
    signals_sent: int = 0

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"ConditionVariable({self.name!r}, {len(self.waiters)} waiting)"


@dataclass
class Semaphore:
    """A counting semaphore (sem_t) — used for the bounded buffer."""
    value: int = 0
    name: str = "sem"
    waiters: deque = field(default_factory=deque)
    #: threads that decremented and have not posted back — the deadlock
    #: detector draws waiter -> holder edges from this (a thread using
    #: a binary semaphore as a lock "holds" its unit)
    holders: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.value < 0:
            raise SyncUsageError("semaphore cannot start negative")

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"Semaphore({self.name!r}, value={self.value})"
