"""Integration tests for the mesh network (delivery, latency, flow control)."""

import random

import pytest

from repro.noc.network import MeshNetwork, NocParams
from repro.noc.packet import (TrafficClass, read_reply, read_request,
                              write_request)
from repro.noc.router import RouterSpec
from repro.noc.routing import DorXY
from repro.noc.topology import Coord, Mesh
from repro.noc.vc import shared_vc_config

#: Node ids on the 6x6 mesh.
N = Mesh(6, 6).index


def make_network(cols=6, rows=6, latency=4, width=16, vcs_per_class=1,
                 source_queue=None, specs=None):
    mesh = Mesh(cols, rows)
    params = NocParams(channel_width=width,
                       source_queue_flits=source_queue)
    specs = specs or {c: RouterSpec(c, pipeline_latency=latency)
                      for c in mesh.coords()}
    return MeshNetwork(mesh, specs, params, shared_vc_config(vcs_per_class),
                       DorXY(mesh), seed=1)


def run_packet(net, packet):
    done = []
    net.set_ejection_handler(packet.dest, lambda p, c: done.append(p))
    assert net.try_inject(packet, net.cycle)
    for _ in range(500):
        net.step()
        if done:
            return done[0]
    raise AssertionError("packet never arrived")


class TestDelivery:
    def test_single_packet_arrives(self):
        net = make_network()
        p = run_packet(net, read_request(N(Coord(0, 0)), N(Coord(5, 5))))
        assert p.ejected > 0

    def test_multi_flit_packet_arrives_whole(self):
        net = make_network()
        p = run_packet(net, read_reply(N(Coord(1, 1)), N(Coord(4, 3))))
        assert net.stats.flits_ejected == 4

    def test_local_delivery(self):
        net = make_network()
        p = run_packet(net, read_request(N(Coord(2, 2)), N(Coord(2, 2))))
        assert p.ejected > 0

    def test_uncontended_latency_matches_hop_model(self):
        """Per-hop cost = pipeline + channel latency (5 cycles baseline),
        plus the same cost at the final router before ejection."""
        net = make_network(latency=4)
        p = run_packet(net, read_request(N(Coord(0, 2)), N(Coord(3, 2))))
        hops = 3
        expected = (hops + 1) * (4 + 1)
        assert abs(p.network_latency - expected) <= 2

    def test_one_cycle_router_latency(self):
        net = make_network(latency=1)
        p = run_packet(net, read_request(N(Coord(0, 2)), N(Coord(3, 2))))
        expected = 4 * (1 + 1)
        assert abs(p.network_latency - expected) <= 2

    def test_latency_scales_with_distance(self):
        net = make_network()
        near = run_packet(net, read_request(N(Coord(0, 0)), N(Coord(1, 0))))
        far = run_packet(net, read_request(N(Coord(0, 0)), N(Coord(5, 5))))
        assert far.network_latency > near.network_latency


class TestWormhole:
    def test_packets_same_vc_stay_ordered(self):
        net = make_network()
        order = []
        dest = N(Coord(5, 0))
        net.set_ejection_handler(dest, lambda p, c: order.append(p.pid))
        packets = [read_reply(N(Coord(0, 0)), dest) for _ in range(4)]
        for p in packets:
            net.try_inject(p, net.cycle)
        for _ in range(400):
            net.step()
        assert order == [p.pid for p in packets]

    def test_flit_conservation(self):
        net = make_network()
        rng = random.Random(0)
        nodes = [net.mesh.index(c) for c in net.mesh.coords()]
        sent = 0
        for node in nodes:
            net.set_ejection_handler(node, lambda p, c: None)
        for i in range(50):
            src, dst = rng.sample(nodes, 2)
            p = read_reply(src, dst) if i % 2 else read_request(src, dst)
            net.try_inject(p, net.cycle)
            sent += len(p.make_flits(16))
        net.run_until_idle()
        assert net.stats.flits_ejected == sent
        assert net.stats.packets_ejected == 50


class TestSourceQueue:
    def test_bounded_queue_rejects_when_full(self):
        net = make_network(source_queue=4)
        src = N(Coord(0, 0))
        ok = [net.try_inject(read_reply(src, N(Coord(5, 5))), 0)
              for _ in range(3)]
        assert ok == [True, False, False]   # 4-flit packet fills the queue

    def test_unbounded_queue_never_rejects(self):
        net = make_network(source_queue=None)
        src = N(Coord(0, 0))
        assert all(net.try_inject(read_reply(src, N(Coord(5, 5))), 0)
                   for _ in range(100))

    def test_queue_drains_over_time(self):
        net = make_network(source_queue=4)
        src = N(Coord(0, 0))
        net.set_ejection_handler(N(Coord(5, 5)), lambda p, c: None)
        assert net.try_inject(read_reply(src, N(Coord(5, 5))), 0)
        assert not net.try_inject(read_reply(src, N(Coord(5, 5))), 0)
        for _ in range(50):
            net.step()
        assert net.try_inject(read_reply(src, N(Coord(5, 5))), net.cycle)


class TestStats:
    def test_injection_counts_per_node(self):
        net = make_network()
        src, dst = N(Coord(1, 1)), N(Coord(4, 4))
        net.set_ejection_handler(dst, lambda p, c: None)
        net.try_inject(read_reply(src, dst), 0)
        net.run_until_idle()
        assert net.stats.node_injected_flits[src] == 4
        assert net.stats.node_ejected_flits[dst] == 4

    def test_per_class_latency_split(self):
        net = make_network()
        run_packet(net, read_request(N(Coord(0, 0)), N(Coord(3, 3))))
        run_packet(net, read_reply(N(Coord(0, 0)), N(Coord(3, 3))))
        stats = net.stats
        assert stats.per_class[TrafficClass.REQUEST].packets == 1
        assert stats.per_class[TrafficClass.REPLY].packets == 1
        assert stats.mean_packet_latency() > 0

    def test_idle_detection(self):
        net = make_network()
        assert net.idle
        net.try_inject(read_request(N(Coord(0, 0)), N(Coord(1, 0))), 0)
        assert not net.idle
        net.set_ejection_handler(N(Coord(1, 0)), lambda p, c: None)
        net.run_until_idle()
        assert net.idle


class TestSaturation:
    def test_heavy_load_drains_without_deadlock(self):
        """Saturating many-to-few traffic must still drain (no deadlock)."""
        net = make_network(source_queue=None)
        rng = random.Random(1)
        mcs = [N(Coord(1, 0)), N(Coord(4, 0)), N(Coord(1, 5)), N(Coord(4, 5))]
        for node in net.mesh.coords():
            net.set_ejection_handler(N(node), lambda p, c: None)
        for _ in range(300):
            src = N(Coord(rng.randrange(6), rng.randrange(6)))
            net.try_inject(read_request(src, rng.choice(mcs)), 0)
        net.run_until_idle(max_cycles=50_000)
        assert net.stats.packets_ejected == 300


class TestChannelUtilization:
    def test_idle_network_zero(self):
        net = make_network()
        for _ in range(10):
            net.step()
        assert net.peak_channel_utilization() == 0.0

    def test_utilization_reflects_traffic(self):
        net = make_network()
        net.set_ejection_handler(N(Coord(5, 2)), lambda p, c: None)
        for _ in range(10):
            net.try_inject(read_reply(N(Coord(0, 2)), N(Coord(5, 2))),
                           net.cycle)
            net.step()
        net.run_until_idle()
        util = net.channel_utilization()
        hot = util[(Coord(2, 2), Coord(3, 2))]
        assert hot > 0.1
        assert util[(Coord(2, 0), Coord(3, 0))] == 0.0
        assert net.peak_channel_utilization() >= hot
