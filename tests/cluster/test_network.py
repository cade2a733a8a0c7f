"""Unit tests for the simulated network: costs, FIFO order, determinism."""

import numpy as np
import pytest

from repro.cluster import Network, NetworkCostModel, payload_bytes
from repro.errors import ClusterError


class TestCostModel:
    def test_wire_cycles_defaults(self):
        cost = NetworkCostModel(latency=10.0, bandwidth=4.0)
        assert cost.wire_cycles(0, 1, 80) == (10.0, 20.0)

    def test_per_link_overrides(self):
        cost = NetworkCostModel(latency=10.0, bandwidth=4.0,
                                link_latency={(0, 1): 100.0},
                                link_bandwidth={(0, 1): 1.0})
        assert cost.wire_cycles(0, 1, 8) == (100.0, 8.0)
        # the reverse direction keeps the defaults (links are directed)
        assert cost.wire_cycles(1, 0, 8) == (10.0, 2.0)

    def test_non_positive_bandwidth_rejected(self):
        cost = NetworkCostModel(link_bandwidth={(0, 1): 0.0})
        with pytest.raises(ClusterError):
            cost.wire_cycles(0, 1, 8)

    @pytest.mark.parametrize("field", ["latency", "send_overhead",
                                       "recv_overhead", "bandwidth"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_rejected_at_construction(self, field,
                                                             value):
        with pytest.raises(ClusterError, match=field):
            NetworkCostModel(**{field: value})

    def test_zero_bandwidth_rejected_zero_latency_allowed(self):
        with pytest.raises(ClusterError):
            NetworkCostModel(bandwidth=0.0)
        assert NetworkCostModel(latency=0.0, send_overhead=0.0,
                                recv_overhead=0.0).barrier_cycles(4) == 0.0

    def test_barrier_cycles_log_tree(self):
        cost = NetworkCostModel(latency=10.0)
        assert cost.barrier_cycles(1) == 0.0
        assert cost.barrier_cycles(2) == 20.0
        assert cost.barrier_cycles(8) == 60.0
        assert cost.barrier_cycles(9) == 80.0


class TestPayloadBytes:
    def test_ndarray_true_size(self):
        assert payload_bytes(np.zeros(16, dtype=np.uint8)) == 16
        assert payload_bytes(np.zeros((4, 4), dtype=np.float64)) == 128

    def test_scalars_and_none_one_word(self):
        for v in (0, 3.5, True, None, np.int64(7)):
            assert payload_bytes(v) == 8

    def test_bytes_and_str(self):
        assert payload_bytes(b"abcd") == 4
        assert payload_bytes("héllo") == len("héllo".encode())

    def test_containers_recurse(self):
        assert payload_bytes([1, 2, 3]) == 8 + 24
        assert payload_bytes({"a": 1}) == 8 + 1 + 8

    def test_unsizable_payload_rejected(self):
        with pytest.raises(ClusterError):
            payload_bytes(object())


class TestSendRecv:
    def test_send_returns_advanced_clock(self):
        net = Network(2, cost=NetworkCostModel(latency=10, bandwidth=8,
                                               send_overhead=4,
                                               recv_overhead=2))
        send_ts = net.send(0, 1, np.zeros(16, dtype=np.uint8), clock=100.0)
        assert send_ts == 104.0

    def test_recv_waits_for_delivery(self):
        net = Network(2, cost=NetworkCostModel(latency=10, bandwidth=8,
                                               send_overhead=4,
                                               recv_overhead=2))
        net.send(0, 1, np.zeros(16, dtype=np.uint8), clock=0.0)
        # deliver_ts = 4 + 10 + 2 = 16; an early receiver waits
        payload, clock = net.recv(1, 0, clock=0.0)
        assert clock == 18.0
        # a late receiver only pays the overhead
        net.send(0, 1, np.zeros(16, dtype=np.uint8), clock=0.0)
        _, clock = net.recv(1, 0, clock=1000.0)
        assert clock == 1002.0

    def test_fifo_per_link_tag(self):
        net = Network(2)
        net.send(0, 1, "first", tag="t")
        net.send(0, 1, "second", tag="t")
        assert net.recv(1, 0, tag="t")[0] == "first"
        assert net.recv(1, 0, tag="t")[0] == "second"

    def test_tags_are_separate_queues(self):
        net = Network(2)
        net.send(0, 1, "a", tag="x")
        net.send(0, 1, "b", tag="y")
        assert net.recv(1, 0, tag="y")[0] == "b"
        assert net.recv(1, 0, tag="x")[0] == "a"

    def test_recv_without_message_is_deadlock(self):
        net = Network(2)
        with pytest.raises(ClusterError, match="deadlock"):
            net.recv(1, 0)

    def test_rank_validation(self):
        net = Network(2)
        with pytest.raises(ClusterError):
            net.send(0, 5, "x")
        with pytest.raises(ClusterError):
            net.recv(5, 0)

    def test_recv_any_earliest_delivery_wins(self):
        cost = NetworkCostModel(latency=10.0, bandwidth=8.0,
                                link_latency={(0, 2): 1000.0})
        net = Network(3, cost=cost)
        net.send(0, 2, "slow", tag="t", clock=0.0)
        net.send(1, 2, "fast", tag="t", clock=0.0)
        msg, _ = net.recv_any(2, tag="t")
        assert msg.payload == "fast" and msg.src == 1
        msg, _ = net.recv_any(2, tag="t")
        assert msg.payload == "slow"
        with pytest.raises(ClusterError):
            net.recv_any(2, tag="t")

    def test_recv_any_ties_break_on_send_seq(self):
        net = Network(3)
        net.send(1, 2, "b", tag="t", clock=0.0)
        net.send(0, 2, "a", tag="t", clock=0.0)
        msg, _ = net.recv_any(2, tag="t")
        assert msg.payload == "b"       # same deliver_ts, lower seq


class TestAccounting:
    def test_stats_and_link_traffic(self):
        net = Network(2, cost=NetworkCostModel(latency=10, bandwidth=8,
                                               send_overhead=4,
                                               recv_overhead=2))
        net.send(0, 1, np.zeros(16, dtype=np.uint8))
        net.recv(1, 0)
        c = net.stats.counters()
        assert c["messages"] == 1 and c["bytes"] == 16
        assert c["cycles_send"] == 4 and c["cycles_latency"] == 10
        assert c["cycles_transfer"] == 2 and c["cycles_recv"] == 2
        assert c["cycles"] == 18
        assert net.link_traffic[(0, 1)] == [1, 16]

    def test_pending_and_drained(self):
        net = Network(2)
        net.send(0, 1, "x")
        assert net.pending() == 1 and net.pending(1) == 1
        with pytest.raises(ClusterError):
            net.assert_drained()
        net.recv(1, 0)
        net.assert_drained()

    def test_event_log_records_both_sides(self):
        net = Network(2)
        net.send(0, 1, "x", tag="t")
        net.recv(1, 0, tag="t")
        kinds = [e[0] for e in net.events]
        assert kinds == ["send", "recv"]
        assert net.events[0][1] == net.events[1][1]   # same seq

    def test_identical_runs_identical_events(self):
        def run():
            net = Network(3)
            for i in range(5):
                net.send(i % 3, (i + 1) % 3, np.arange(i + 1), tag="t")
            out = []
            for i in range(5):
                msg, _ = net.recv_any((i + 1) % 3, tag="t")
                out.append(msg.seq)
            return net.events, out
        assert run() == run()
