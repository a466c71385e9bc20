"""Tests for the memory-controller node and the address map."""

import pytest

from repro.mem.controller import AddressMap, McConfig, MemoryController
from repro.noc.packet import (TrafficClass, read_reply, read_request,
                              write_request)
from repro.noc.topology import Coord

MC = Coord(1, 0)
CORE = Coord(3, 3)


class Token:
    def __init__(self, local_addr):
        self.local_addr = local_addr


class Harness:
    """Wires an MC to a fake reply network and drives both clocks."""

    def __init__(self, config=None, accept_replies=True):
        self.replies = []
        self.accept = accept_replies
        self.mc = MemoryController(MC, config or McConfig(),
                                   inject=self._inject)
        self.icnt = 0
        self.mclk = 0

    def _inject(self, packet, cycle):
        if not self.accept:
            return False
        self.replies.append(packet)
        return True

    def request(self, addr, write=False):
        make = write_request if write else read_request
        packet = make(CORE, MC, created=self.icnt, payload=Token(addr))
        self.mc.on_packet(packet, self.icnt)
        return packet

    def run(self, icnt_cycles):
        for _ in range(icnt_cycles):
            self.icnt += 1
            self.mc.icnt_step(self.icnt)
            # ~1.84 DRAM clocks per interconnect clock
            for _ in range(2 if self.icnt % 2 else 1):
                self.mclk += 1
                self.mc.dram_step(self.mclk)

    def run_until_idle(self, limit=20_000):
        for _ in range(limit):
            if self.mc.idle:
                return
            self.run(1)
        raise AssertionError("MC did not go idle")


class TestAddressMap:
    def test_interleaving_every_256_bytes(self):
        amap = AddressMap(8)
        assert amap.mc_index(0) == 0
        assert amap.mc_index(255) == 0
        assert amap.mc_index(256) == 1
        assert amap.mc_index(256 * 8) == 0

    def test_local_addresses_compact(self):
        amap = AddressMap(8)
        # Consecutive chunks owned by MC0 are locally consecutive.
        assert amap.local_address(0) == 0
        assert amap.local_address(256 * 8) == 256
        assert amap.local_address(256 * 16 + 5) == 512 + 5

    def test_single_mc(self):
        amap = AddressMap(1)
        assert amap.mc_index(123456) == 0
        assert amap.local_address(123456) == 123456

    def test_rejects_zero_mcs(self):
        with pytest.raises(ValueError):
            AddressMap(0)


class TestReadPath:
    def test_read_miss_goes_to_dram_and_replies(self):
        h = Harness()
        h.request(0x1000)
        h.run_until_idle()
        assert len(h.replies) == 1
        reply = h.replies[0]
        assert reply.traffic_class is TrafficClass.REPLY
        assert reply.dest == CORE
        assert h.mc.reads == 1

    def test_read_hit_served_by_l2(self):
        h = Harness()
        h.request(0x1000)
        h.run_until_idle()
        dram_before = h.mc.dram.requests_serviced
        h.request(0x1000)
        h.run_until_idle()
        assert len(h.replies) == 2
        assert h.mc.dram.requests_serviced == dram_before
        assert h.mc.l2.hits == 1

    def test_l2_latency_delays_processing(self):
        h = Harness(McConfig(l2_latency=8))
        h.request(0x1000)
        h.run(7)
        assert h.mc.reads == 0
        h.run(3)
        assert h.mc.reads == 1

    def test_reply_payload_echoed(self):
        h = Harness()
        pkt = h.request(0x2000)
        h.run_until_idle()
        assert h.replies[0].payload is pkt.payload


class TestWritePath:
    def test_write_fills_l2_dirty(self):
        h = Harness()
        h.request(0x3000, write=True)
        h.run_until_idle()
        assert h.mc.writes == 1
        assert h.replies == []          # writes get no reply
        assert h.mc.l2.contains(0x3000)

    def test_dirty_eviction_reaches_dram(self):
        h = Harness(McConfig(l2_size_bytes=1024, l2_associativity=2))
        # Fill one set beyond associativity with dirty lines.
        sets = h.mc.l2.config.num_sets
        for i in range(3):
            h.request(i * sets * 64, write=True)
        h.run_until_idle()
        writes = h.mc.dram.requests_serviced
        assert writes >= 1              # at least one writeback


class TestStallAccounting:
    def test_blocked_when_network_refuses(self):
        h = Harness(accept_replies=False)
        h.request(0x1000)
        h.run(600)
        assert h.mc.blocked_cycles > 0
        assert h.mc.stall_fraction() > 0

    def test_gating_stops_input_when_blocked(self):
        config = McConfig(reply_backlog_limit=2)
        h = Harness(config, accept_replies=False)
        for i in range(200):
            h.request(0x1000 + i * 64)
        h.run(1000)
        reads_then = h.mc.reads
        h.run(1000)
        # Once the reply backlog forms, no further requests are processed.
        assert h.mc.reads == reads_then
        assert h.mc.reads < 200

    def test_unblocked_mc_not_stalled(self):
        h = Harness()
        h.request(0x1000)
        h.run_until_idle()
        assert h.mc.stall_fraction() == 0.0

    def test_rejects_reply_packets(self):
        h = Harness()
        with pytest.raises(ValueError):
            h.mc.on_packet(read_reply(CORE, MC), 0)

    def test_requires_local_addr_payload(self):
        """The request is refused on arrival, so nothing is queued and
        later cycles run on."""
        h = Harness()
        packet = read_request(CORE, MC, payload="nope")
        with pytest.raises(ValueError, match="local_addr"):
            h.mc.on_packet(packet, 0)
        assert h.mc.requests_received == 0 and h.mc.idle
        h.run(20)


class TestAddressMapProperties:
    def test_roundtrip_density(self):
        """local addresses of one MC tile the local space contiguously."""
        amap = AddressMap(8)
        locals_ = sorted(amap.local_address(a)
                         for a in range(0, 8 * 256 * 4, 256)
                         if amap.mc_index(a) == 3)
        assert locals_ == [0, 256, 512, 768]

    def test_global_space_partitioned(self):
        import random as _r
        amap = AddressMap(8)
        rng = _r.Random(0)
        seen = {}
        for _ in range(500):
            addr = rng.randrange(1 << 30)
            key = (amap.mc_index(addr), amap.local_address(addr))
            assert key not in seen or seen[key] // 256 == addr // 256
            seen[key] = addr
