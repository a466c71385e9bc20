"""Tests for packets, flits and segmentation."""

import pytest
from hypothesis import given, strategies as st

from repro.noc.packet import (READ_REPLY_BYTES, READ_REQUEST_BYTES,
                              WRITE_REQUEST_BYTES, Packet, RouteGroup,
                              TrafficClass, read_reply, read_request,
                              flit_count, write_request)
from repro.noc.topology import Coord, Mesh

SRC, DST = Mesh(6, 6).index(Coord(0, 0)), Mesh(6, 6).index(Coord(3, 2))


class TestPacketSizes:
    def test_paper_packet_sizes(self):
        assert READ_REQUEST_BYTES == 8
        assert WRITE_REQUEST_BYTES == 64
        assert READ_REPLY_BYTES == 64

    def test_read_request_is_one_flit_at_16b(self):
        assert len(read_request(SRC, DST).make_flits(16)) == 1

    def test_read_reply_is_four_flits_at_16b(self):
        assert len(read_reply(SRC, DST).make_flits(16)) == 4

    def test_write_request_is_four_flits_at_16b(self):
        assert len(write_request(SRC, DST).make_flits(16)) == 4

    def test_channel_slicing_doubles_large_packets(self):
        assert len(read_reply(SRC, DST).make_flits(8)) == 8

    def test_small_requests_still_single_flit_when_sliced(self):
        assert len(read_request(SRC, DST).make_flits(8)) == 1

    def test_double_width_halves_flits(self):
        assert len(read_reply(SRC, DST).make_flits(32)) == 2

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            len(read_request(SRC, DST).make_flits(0))

    @given(st.integers(1, 512), st.integers(1, 64))
    def test_flit_count_covers_bytes(self, size, width):
        p = Packet(SRC, DST, size, TrafficClass.REQUEST)
        n = flit_count(p.size_bytes, width)
        assert (n - 1) * width < size <= n * width


class TestFlits:
    def test_make_flits_structure(self):
        flits = read_reply(SRC, DST).make_flits(16)
        assert len(flits) == 4
        assert flits[0].is_head and not flits[0].is_tail
        assert flits[-1].is_tail and not flits[-1].is_head
        assert all(not f.is_head and not f.is_tail for f in flits[1:-1])

    def test_single_flit_is_head_and_tail(self):
        (flit,) = read_request(SRC, DST).make_flits(16)
        assert flit.is_head and flit.is_tail

    def test_flits_share_packet(self):
        p = read_reply(SRC, DST)
        assert all(f.packet is p for f in p.make_flits(16))

    def test_flit_indices_sequential(self):
        flits = read_reply(SRC, DST).make_flits(8)
        assert [f.index for f in flits] == list(range(8))

    def test_flit_dest_mirrors_packet(self):
        (flit,) = read_request(SRC, DST).make_flits(16)
        assert flit.dest == DST


class TestPacketClasses:
    def test_requests_and_replies(self):
        assert read_request(SRC, DST).traffic_class is TrafficClass.REQUEST
        assert write_request(SRC, DST).traffic_class is TrafficClass.REQUEST
        assert read_reply(SRC, DST).traffic_class is TrafficClass.REPLY

    def test_pids_unique(self):
        pids = {read_request(SRC, DST).pid for _ in range(100)}
        assert len(pids) == 100

    def test_default_route_state(self):
        p = read_request(SRC, DST)
        assert p.group is RouteGroup.ANY
        assert p.intermediate is None
        assert p.phase == 1

    def test_payload_carried(self):
        token = object()
        assert read_reply(SRC, DST, payload=token).payload is token


class TestLatency:
    def test_latency_requires_ejection(self):
        p = read_request(SRC, DST, created=5)
        with pytest.raises(ValueError):
            _ = p.latency

    def test_latency_computation(self):
        p = read_request(SRC, DST, created=5)
        p.injected, p.ejected = 8, 25
        assert p.latency == 20
        assert p.network_latency == 17

    def test_network_latency_requires_injection(self):
        p = read_request(SRC, DST)
        p.ejected = 10
        with pytest.raises(ValueError):
            _ = p.network_latency
