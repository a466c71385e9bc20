"""Tests for network statistics and merging."""

from repro.noc.packet import TrafficClass, read_reply, read_request
from repro.noc.stats import NetworkStats, merge_stats
from repro.noc.topology import Coord, Mesh

SRC, DST = Mesh(6, 6).index(Coord(0, 0)), Mesh(6, 6).index(Coord(3, 3))


def ejected_packet(created=0, injected=2, ejected=10, reply=False):
    p = (read_reply if reply else read_request)(SRC, DST, created=created)
    p.injected, p.ejected = injected, ejected
    return p


class TestNetworkStats:
    def test_injection_recording(self):
        s = NetworkStats()
        s.record_injection(read_request(SRC, DST), 1)
        assert s.packets_injected == 1
        assert s.flits_injected == 1
        assert s.node_injected_flits[SRC] == 1

    def test_ejection_recording(self):
        s = NetworkStats()
        p = ejected_packet()
        s.record_ejection(p, 1)
        assert s.packets_ejected == 1
        assert s.per_class[TrafficClass.REQUEST].packets == 1
        assert s.node_ejected_flits[DST] == 1

    def test_latency_means(self):
        s = NetworkStats()
        s.record_ejection(ejected_packet(ejected=10), 1)
        s.record_ejection(ejected_packet(ejected=20), 1)
        assert s.mean_packet_latency() == 15.0
        assert s.mean_network_latency() == 13.0

    def test_in_flight(self):
        s = NetworkStats()
        s.record_injection(read_request(SRC, DST), 1)
        assert s.packets_in_flight == 1
        s.record_ejection(ejected_packet(), 1)
        assert s.packets_in_flight == 0

    def test_rates(self):
        s = NetworkStats()
        s.cycles = 100
        s.record_injection(read_request(SRC, DST), 4)
        s.record_ejection(ejected_packet(reply=True), 4)
        assert s.injection_rate(SRC) == 0.04
        assert s.accepted_flit_rate() == 0.04
        assert s.mean_injection_rate([SRC, DST]) == 0.02

    def test_zero_cycles_safe(self):
        s = NetworkStats()
        assert s.accepted_flit_rate() == 0.0
        assert s.mean_packet_latency() == 0.0

    def test_offer_recording(self):
        s = NetworkStats()
        s.record_offer(read_reply(SRC, DST), 4)
        assert s.packets_offered == 1
        assert s.flits_offered == 4

    def test_source_queued_is_offered_minus_injected(self):
        """A packet accepted but parked in a source FIFO is visible as
        offered-but-not-injected — the skew the old stats hid."""
        s = NetworkStats()
        s.record_offer(read_reply(SRC, DST), 4)
        s.record_offer(read_request(SRC, DST), 1)
        assert s.packets_source_queued == 2
        assert s.flits_source_queued == 5
        s.record_injection(read_reply(SRC, DST), 4)
        assert s.packets_source_queued == 1
        assert s.flits_source_queued == 1
        assert s.packets_outstanding == 2

    def test_outstanding_counts_down_on_ejection(self):
        s = NetworkStats()
        s.record_offer(read_request(SRC, DST), 1)
        s.record_injection(read_request(SRC, DST), 1)
        s.record_ejection(ejected_packet(), 1)
        assert s.packets_outstanding == 0
        assert s.packets_source_queued == 0


class TestMerge:
    def test_merge_sums_counts(self):
        a, b = NetworkStats(), NetworkStats()
        a.cycles = b.cycles = 100
        a.record_injection(read_request(SRC, DST), 1)
        b.record_injection(read_reply(SRC, DST), 4)
        a.record_ejection(ejected_packet(), 1)
        b.record_ejection(ejected_packet(reply=True), 4)
        m = merge_stats([a, b])
        assert m.flits_injected == 5
        assert m.packets_ejected == 2
        assert m.node_injected_flits[SRC] == 5
        assert m.cycles == 100

    def test_merge_latency_sums(self):
        a, b = NetworkStats(), NetworkStats()
        a.record_ejection(ejected_packet(ejected=10), 1)
        b.record_ejection(ejected_packet(ejected=30, reply=True), 4)
        m = merge_stats([a, b])
        assert m.mean_packet_latency() == 20.0

    def test_merge_empty_list(self):
        m = merge_stats([])
        assert m.packets_injected == 0

    def test_merge_sums_offered(self):
        a, b = NetworkStats(), NetworkStats()
        a.record_offer(read_request(SRC, DST), 1)
        b.record_offer(read_reply(SRC, DST), 4)
        b.record_injection(read_reply(SRC, DST), 4)
        m = merge_stats([a, b])
        assert m.packets_offered == 2
        assert m.flits_offered == 5
        assert m.packets_source_queued == 1
