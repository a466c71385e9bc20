"""Router/network timing details: streaming throughput, wormhole body
behaviour, credit-limited throughput with shallow buffers."""

import dataclasses

import pytest

from repro.noc.network import MeshNetwork, NocParams
from repro.noc.packet import read_reply, read_request
from repro.noc.router import RouterSpec
from repro.noc.routing import DorXY
from repro.noc.topology import Coord, Mesh
from repro.noc.vc import shared_vc_config

#: The 6x1 line's node ids.
LINE = Mesh(6, 1)


def line_network(length=6, latency=4, depth=8, vcs=1):
    mesh = Mesh(length, 1)
    params = NocParams(channel_width=16, vc_buffer_depth=depth,
                       source_queue_flits=None)
    specs = {c: RouterSpec(c, pipeline_latency=latency)
             for c in mesh.coords()}
    return MeshNetwork(mesh, specs, params, shared_vc_config(vcs),
                       DorXY(mesh), seed=1)


class TestStreamingThroughput:
    def test_one_flit_per_cycle_steady_state(self):
        """A saturated link moves one flit per cycle once the pipeline
        fills: N back-to-back 4-flit packets eject ~4N cycles apart."""
        net = line_network()
        times = []
        dst = LINE.index(Coord(5, 0))
        net.set_ejection_handler(dst, lambda p, c: times.append(c))
        n = 12
        for _ in range(n):
            net.try_inject(read_reply(LINE.index(Coord(0, 0)), dst), 0)
        net.run_until_idle()
        assert len(times) == n
        spacing = [b - a for a, b in zip(times, times[1:])]
        # steady state: one 4-flit packet per 4 cycles
        assert all(s == 4 for s in spacing[3:])

    def test_shallow_buffers_throttle_throughput(self):
        """With 2-flit buffers the credit round trip limits the rate."""
        deep = line_network(depth=8)
        shallow = line_network(depth=2)
        results = {}
        for name, net in (("deep", deep), ("shallow", shallow)):
            times = []
            dst = LINE.index(Coord(5, 0))
            net.set_ejection_handler(dst, lambda p, c: times.append(c))
            for _ in range(10):
                net.try_inject(read_reply(LINE.index(Coord(0, 0)), dst), 0)
            net.run_until_idle()
            results[name] = times[-1] - times[0]
        assert results["shallow"] > results["deep"]

    def test_pipeline_fill_time(self):
        """First ejection after ~hops x (pipeline + channel) cycles."""
        net = line_network(latency=4)
        times = []
        dst = LINE.index(Coord(5, 0))
        net.set_ejection_handler(dst, lambda p, c: times.append(c))
        net.try_inject(read_request(LINE.index(Coord(0, 0)), dst), 0)
        net.run_until_idle()
        assert 6 * 5 - 2 <= times[0] <= 6 * 5 + 4


class TestWormholeBodies:
    def test_interleaving_across_vcs_not_within(self):
        """Two packets on different VCs may interleave on the link, but
        each packet's flits stay in order."""
        net = line_network(vcs=2)
        dst = LINE.index(Coord(5, 0))
        arrivals = []
        net.set_ejection_handler(dst, lambda p, c: arrivals.append(p.pid))
        a = read_reply(LINE.index(Coord(0, 0)), dst)
        b = read_reply(LINE.index(Coord(0, 0)), dst)
        net.try_inject(a, 0)
        net.try_inject(b, 0)
        net.run_until_idle()
        assert set(arrivals) == {a.pid, b.pid}

    def test_blocked_head_blocks_bodies(self):
        """With one VC, a packet blocked behind another cannot overtake."""
        net = line_network(vcs=1)
        order = []
        for x, dst in ((0, LINE.index(Coord(5, 0))),
                       (1, LINE.index(Coord(4, 0)))):
            net.set_ejection_handler(dst, lambda p, c, d=dst: order.append(d))
        first = read_reply(LINE.index(Coord(0, 0)), LINE.index(Coord(5, 0)))
        second = read_reply(LINE.index(Coord(0, 0)), LINE.index(Coord(4, 0)))
        net.try_inject(first, 0)
        net.try_inject(second, 0)
        net.run_until_idle()
        assert (order[0] == LINE.index(Coord(5, 0))
                or order[0] == LINE.index(Coord(4, 0)))
        assert len(order) == 2


class TestChannelLatencyKnob:
    @pytest.mark.parametrize("channel_latency", [1, 2, 4])
    def test_latency_scales_with_channel_delay(self, channel_latency):
        mesh = Mesh(6, 1)
        params = NocParams(channel_width=16, channel_latency=channel_latency,
                           source_queue_flits=None)
        specs = {c: RouterSpec(c, pipeline_latency=1)
                 for c in mesh.coords()}
        net = MeshNetwork(mesh, specs, params, shared_vc_config(1),
                          DorXY(mesh), seed=1)
        times = []
        dst = LINE.index(Coord(5, 0))
        net.set_ejection_handler(dst, lambda p, c: times.append(c))
        net.try_inject(read_request(LINE.index(Coord(0, 0)), dst), 0)
        net.run_until_idle()
        expected = 6 * (1 + channel_latency)
        assert abs(times[0] - expected) <= 3
