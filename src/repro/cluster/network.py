"""The simulated message-passing network between cluster nodes.

MPI at CS 31 depth: nodes exchange explicit messages over links with
per-link latency and bandwidth, and every byte moved is accounted in
simulated cycles — the same cost-model discipline the memory bus
established, now between machines instead of inside one. The model is
the classic latency/bandwidth (LogP-lite) formula::

    deliver_ts = send_ts + send_overhead + latency + nbytes / bandwidth

with ``latency`` and ``bandwidth`` overridable per directed link
(:attr:`NetworkCostModel.link_latency` / ``link_bandwidth`` — a "rack"
of close nodes and a slow cross-rack uplink take two dict entries).

Delivery is deterministic by construction: messages between one
``(src, dst, tag)`` pair form a FIFO queue (senders' clocks never run
backwards, so queue order is delivery order), and :meth:`Network.recv_any`
breaks ties on ``(deliver_ts, seq)`` where ``seq`` is a global send
counter. Two identical runs therefore produce byte-identical
:attr:`Network.events` logs — pinned by the determinism tests.

Accounting follows :mod:`repro.system.costing`: :class:`NetStats` is a
:class:`~repro.system.costing.CycleStats` whose buckets say where wire
time went (``send`` / ``latency`` / ``transfer`` / ``recv``), plus
message/byte counters and per-link tallies. Observability follows
:mod:`repro.obs`: a send emits an instant on the network lane and a
per-link counter sample, all guarded on ``recorder.enabled``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ClusterError
from repro.obs.recorder import coalesce
from repro.system.costing import CycleStats


@dataclass(frozen=True)
class NetworkCostModel:
    """Latency/bandwidth parameters of the simulated interconnect.

    Units match the bus :class:`~repro.system.costing.CostModel`:
    everything is cycles (and bytes per cycle), so node compute time and
    network time land on one clock. Defaults are deliberately "fast
    LAN relative to one cell update": a short message costs ~60 cycles
    while a 128×128 Life band costs ~2000 compute cycles, so banded
    scaling stays visibly monotone yet comm is never free.
    """
    latency: float = 50.0         # wire cycles per message
    bandwidth: float = 8.0        # payload bytes per cycle
    send_overhead: float = 4.0    # sender-side cycles per message
    recv_overhead: float = 4.0    # receiver-side cycles per message
    #: per-directed-link overrides, keyed by (src, dst)
    link_latency: dict[tuple[int, int], float] = field(default_factory=dict)
    link_bandwidth: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("latency", "send_overhead", "recv_overhead"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ClusterError(f"{name} must be finite and non-negative")
        if not 0 < self.bandwidth < math.inf:
            raise ClusterError("bandwidth must be finite and positive")

    def wire_cycles(self, src: int, dst: int,
                    nbytes: int) -> tuple[float, float]:
        """(latency, transfer) cycles for ``nbytes`` over ``src → dst``."""
        latency = self.link_latency.get((src, dst), self.latency)
        bandwidth = self.link_bandwidth.get((src, dst), self.bandwidth)
        if bandwidth <= 0:
            raise ClusterError(f"link {src}->{dst} has non-positive "
                               f"bandwidth {bandwidth}")
        return latency, nbytes / bandwidth

    def barrier_cycles(self, num_nodes: int) -> float:
        """Cost of one full barrier: a log-depth tree of round trips."""
        if num_nodes <= 1:
            return 0.0
        return 2.0 * self.latency * math.ceil(math.log2(num_nodes))


@dataclass
class NetStats(CycleStats):
    """What crossed the network, and what it cost (cycles by bucket)."""
    messages: int = 0
    bytes_moved: int = 0

    def counters(self) -> dict[str, float]:
        """A flat dict for reports and stats-equality assertions."""
        out: dict[str, float] = {"messages": self.messages,
                                 "bytes": self.bytes_moved,
                                 "cycles": self.cycles}
        out.update(self.breakdown_counters())
        return out


@dataclass(frozen=True)
class Message:
    """One in-flight message (payload + its place on the wire)."""
    seq: int
    src: int
    dst: int
    tag: str
    payload: Any
    nbytes: int
    send_ts: float
    deliver_ts: float


def payload_bytes(payload: Any) -> int:
    """Deterministic wire size of a payload, in bytes.

    Numpy arrays and raw bytes report their true size; scalars cost one
    machine word; containers sum their items plus a small header — a
    stable stand-in for serialization, not an exact pickle count.
    """
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (bool, int, float, np.integer, np.floating)) \
            or payload is None:
        return 8
    if isinstance(payload, dict):
        return 8 + sum(payload_bytes(k) + payload_bytes(v)
                       for k, v in payload.items())
    if isinstance(payload, (list, tuple)):
        return 8 + sum(payload_bytes(item) for item in payload)
    raise ClusterError(
        f"cannot size payload of type {type(payload).__name__} "
        "(send arrays, bytes, scalars, or containers of those)")


class Network:
    """Point-to-point simulated messaging between ``num_nodes`` ranks.

    The primitives (:meth:`send`, :meth:`recv`, :meth:`recv_any`) take
    and return the caller's *clock* so all timing flows through one
    place; :class:`~repro.cluster.node.Node` wraps them with per-node
    accounting, and :class:`~repro.cluster.node.Cluster` builds
    ``barrier``/``allreduce`` on top. :attr:`events` is the append-only
    delivery log the determinism tests fingerprint: one
    ``("send"|"recv", seq, src, dst, tag, nbytes, ts)`` tuple per
    operation, in program order.
    """

    def __init__(self, num_nodes: int, *,
                 cost: NetworkCostModel | None = None,
                 recorder=None) -> None:
        if num_nodes < 1:
            raise ClusterError("a network needs at least one node")
        self.num_nodes = num_nodes
        self.cost = cost or NetworkCostModel()
        self.stats = NetStats()
        #: per-directed-link (messages, bytes) tallies
        self.link_traffic: dict[tuple[int, int], list[int]] = {}
        #: the deterministic operation log (see class docstring)
        self.events: list[tuple] = []
        self._queues: dict[tuple[int, int, str], deque[Message]] = {}
        self._seq = 0
        self.recorder = coalesce(recorder)
        self._send_instants = None      # lazy series handle
        self._link_counters: dict[tuple[int, int], Any] = {}

    # -- validation ---------------------------------------------------------

    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.num_nodes:
            raise ClusterError(f"{what} rank {rank} out of range "
                               f"(cluster has {self.num_nodes} nodes)")

    # -- point-to-point -----------------------------------------------------

    def send(self, src: int, dst: int, payload: Any, *, tag: str = "",
             clock: float = 0.0) -> float:
        """Post a message; returns the sender's advanced clock.

        The sender is busy for ``send_overhead`` cycles; the message
        travels on its own (latency + size/bandwidth) and becomes
        receivable at ``deliver_ts``. Sending never blocks — buffering
        is infinite, as in the MPI eager protocol.
        """
        self._check_rank(src, "sender")
        self._check_rank(dst, "receiver")
        nbytes = payload_bytes(payload)
        latency, transfer = self.cost.wire_cycles(src, dst, nbytes)
        send_ts = clock + self.cost.send_overhead
        deliver_ts = send_ts + latency + transfer
        msg = Message(self._seq, src, dst, tag, payload, nbytes,
                      send_ts, deliver_ts)
        self._seq += 1
        self._queues.setdefault((src, dst, tag), deque()).append(msg)
        self.stats.messages += 1
        self.stats.bytes_moved += nbytes
        self.stats.charge("send", self.cost.send_overhead)
        self.stats.charge("latency", latency)
        self.stats.charge("transfer", transfer)
        traffic = self.link_traffic.setdefault((src, dst), [0, 0])
        traffic[0] += 1
        traffic[1] += nbytes
        self.events.append(("send", msg.seq, src, dst, tag, nbytes, clock))
        rec = self.recorder
        if rec.enabled:
            if self._send_instants is None:
                self._send_instants = rec.instant_series(
                    "net.send", pid="network", tid="wire", cat="net")
            self._send_instants.hit(send_ts)
            link = (src, dst)
            ctr = self._link_counters.get(link)
            if ctr is None:
                ctr = rec.counter_series(
                    f"link {src}->{dst}", ("messages", "bytes"),
                    pid="network", tid=f"{src}->{dst}", cat="net")
                self._link_counters[link] = ctr
            ctr.sample(send_ts, (traffic[0], traffic[1]))
        return send_ts

    def recv(self, dst: int, src: int, *, tag: str = "",
             clock: float = 0.0) -> tuple[Any, float]:
        """Receive the next ``src → dst`` message with ``tag``.

        Returns ``(payload, advanced clock)``: the receiver waits until
        the message's ``deliver_ts`` if it arrives early, then pays
        ``recv_overhead``. A recv with no matching message posted is a
        :class:`~repro.errors.ClusterError` — in this orchestrated
        model it means the program deadlocked, not that the message is
        still coming.
        """
        self._check_rank(dst, "receiver")
        self._check_rank(src, "sender")
        queue = self._queues.get((src, dst, tag))
        if not queue:
            raise ClusterError(
                f"node {dst} recv from {src} (tag {tag!r}): no message "
                "posted — the cluster program would deadlock here")
        msg = queue.popleft()
        return self._deliver(msg, clock)

    def recv_any(self, dst: int, *, tag: str = "",
                 clock: float = 0.0) -> tuple[Message, float]:
        """Receive whichever pending message for ``dst`` arrives first.

        Earliest ``deliver_ts`` wins; the global send sequence breaks
        ties, so the choice is deterministic. Returns the whole
        :class:`Message` (the caller usually wants ``src`` too).
        """
        self._check_rank(dst, "receiver")
        best_key = None
        best: Message | None = None
        for (_, d, t), queue in self._queues.items():
            if d != dst or t != tag or not queue:
                continue
            head = queue[0]
            key = (head.deliver_ts, head.seq)
            if best_key is None or key < best_key:
                best_key = key
                best = head
        if best is None:
            raise ClusterError(
                f"node {dst} recv_any (tag {tag!r}): no message pending")
        self._queues[(best.src, dst, tag)].popleft()
        _, new_clock = self._deliver(best, clock)
        return best, new_clock

    def _deliver(self, msg: Message, clock: float) -> tuple[Any, float]:
        new_clock = max(clock, msg.deliver_ts) + self.cost.recv_overhead
        self.stats.charge("recv", self.cost.recv_overhead)
        self.events.append(("recv", msg.seq, msg.src, msg.dst, msg.tag,
                            msg.nbytes, new_clock))
        return msg.payload, new_clock

    # -- introspection ------------------------------------------------------

    def pending(self, dst: int | None = None) -> int:
        """Messages posted but not yet received (for ``dst`` if given)."""
        return sum(len(q) for (_, d, _), q in self._queues.items()
                   if dst is None or d == dst)

    def assert_drained(self) -> None:
        """Raise if any message was posted but never received."""
        left = self.pending()
        if left:
            raise ClusterError(f"{left} message(s) never received")

    def describe(self) -> str:
        c = self.cost
        return (f"network: {self.num_nodes} nodes, latency {c.latency:g}cy, "
                f"bandwidth {c.bandwidth:g}B/cy, "
                f"overheads {c.send_overhead:g}/{c.recv_overhead:g}cy")
