"""Tests for the ideal-network models (perfect and bandwidth-capped)."""

import pytest

from repro.noc.ideal import BandwidthLimitedNetwork, PerfectNetwork
from repro.noc.packet import read_reply, read_request
from repro.noc.topology import Coord, Mesh

MESH = Mesh(6, 6)
SRC, DST = MESH.index(Coord(0, 0)), MESH.index(Coord(5, 5))


class TestPerfectNetwork:
    def test_zero_latency_delivery(self):
        net = PerfectNetwork()
        got = []
        net.set_ejection_handler(DST, lambda p, c: got.append((p, c)))
        net.try_inject(read_request(SRC, DST, created=0), 0)
        net.step()
        assert len(got) == 1

    def test_unlimited_bandwidth(self):
        net = PerfectNetwork()
        got = []
        net.set_ejection_handler(DST, lambda p, c: got.append(p))
        for _ in range(1000):
            net.try_inject(read_reply(SRC, DST), 0)
        net.step()
        assert len(got) == 1000

    def test_stats_recorded(self):
        net = PerfectNetwork()
        net.set_ejection_handler(DST, lambda p, c: None)
        net.try_inject(read_reply(SRC, DST), 0)
        net.step()
        assert net.stats.flits_injected == 4
        assert net.stats.flits_ejected == 4

    def test_idle(self):
        net = PerfectNetwork()
        assert net.idle
        net.try_inject(read_request(SRC, DST), 0)
        assert not net.idle
        net.set_ejection_handler(DST, lambda p, c: None)
        net.step()
        assert net.idle


class TestBandwidthLimited:
    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            BandwidthLimitedNetwork(0)

    def test_cap_enforced(self):
        """At 1 flit/cycle, 10 four-flit packets need ~40 cycles."""
        net = BandwidthLimitedNetwork(1.0)
        got = []
        net.set_ejection_handler(DST, lambda p, c: got.append(c))
        for _ in range(10):
            net.try_inject(read_reply(SRC, DST), 0)
        cycles = 0
        while len(got) < 10:
            net.step()
            cycles += 1
            assert cycles < 100
        assert cycles >= 36   # 40 flits minus the banked allowance

    def test_fractional_budget_accumulates(self):
        net = BandwidthLimitedNetwork(0.5)
        got = []
        net.set_ejection_handler(DST, lambda p, c: got.append(c))
        for _ in range(5):
            net.try_inject(read_request(SRC, DST), 0)   # 1 flit each
        for _ in range(20):
            net.step()
        assert len(got) == 5
        # Roughly one delivery every two cycles after the banked start.
        assert got[-1] - got[0] >= 4

    def test_fifo_order(self):
        net = BandwidthLimitedNetwork(1.0)
        got = []
        net.set_ejection_handler(DST, lambda p, c: got.append(p.pid))
        packets = [read_request(SRC, DST) for _ in range(5)]
        for p in packets:
            net.try_inject(p, 0)
        for _ in range(20):
            net.step()
        assert got == [p.pid for p in packets]

    def test_multiple_sources_same_cycle(self):
        """Section III-A: multiple sources can transmit in one cycle."""
        net = BandwidthLimitedNetwork(10.0)
        got = []
        net.set_ejection_handler(DST, lambda p, c: got.append(p))
        for x in range(6):
            net.try_inject(read_request(MESH.index(Coord(x, 0)), DST), 0)
        net.step()
        assert len(got) == 6

    def test_high_cap_behaves_like_perfect(self):
        net = BandwidthLimitedNetwork(1e9)
        got = []
        net.set_ejection_handler(DST, lambda p, c: got.append(p))
        for _ in range(50):
            net.try_inject(read_reply(SRC, DST), 0)
        net.step()
        assert len(got) == 50
