"""Network-level tests of multi-port MC routers (Section IV-D)."""

import dataclasses

import pytest

from repro.core.builder import (CP_CR, DOUBLE_CP_CR, DOUBLE_CP_CR_2P, build,
                                open_loop_variant)
from repro.noc.packet import read_reply
from repro.noc.topology import injection_port

CP_CR_2P = dataclasses.replace(CP_CR, name="CP-CR-2P", mc_inject_ports=2)


def reply_flood(system, mc, count=40):
    """Queue many replies at one MC and measure drain time."""
    done = []
    node = system.mesh.index
    for core in system.compute_nodes:
        system.set_ejection_handler(node(core), lambda p, c: done.append(c))
    for i in range(count):
        core = system.compute_nodes[i % len(system.compute_nodes)]
        system.try_inject(read_reply(node(mc), node(core)), 0)
    system.run_until_idle(max_cycles=100_000)
    return max(done)


class TestInjectionBandwidth:
    def test_two_ports_drain_replies_faster(self):
        one = build(open_loop_variant(CP_CR))
        two = build(open_loop_variant(CP_CR_2P))
        mc1, mc2 = one.mc_nodes[0], two.mc_nodes[0]
        t1 = reply_flood(one, mc1)
        t2 = reply_flood(two, mc2)
        assert t2 < t1 * 0.75   # near-2x injection bandwidth

    def test_packets_alternate_ports(self):
        system = build(open_loop_variant(CP_CR_2P))
        mc = system.mc_nodes[0]
        net = system.networks[0]
        for i in range(6):
            system.try_inject(
                read_reply(system.mesh.index(mc),
                           system.mesh.index(system.compute_nodes[i])), 0)
        ports = net._sources[mc]
        assert len(ports) == 2
        assert len(ports[0].fifo) == 3
        assert len(ports[1].fifo) == 3

    def test_non_mc_nodes_single_port(self):
        system = build(open_loop_variant(CP_CR_2P))
        core = system.compute_nodes[0]
        assert len(system.networks[0]._sources[core]) == 1

    def test_router_has_matching_injection_buffers(self):
        system = build(open_loop_variant(CP_CR_2P))
        router = system.networks[0].routers[system.mc_nodes[0]]
        assert injection_port(0) in router.in_ports
        assert injection_port(1) in router.in_ports

    def test_double_network_2p_in_both_slices(self):
        system = build(open_loop_variant(DOUBLE_CP_CR_2P))
        for net in system.networks:
            router = net.routers[system.mc_nodes[0]]
            assert router.spec.num_inject_ports == 2


class TestWormholeWithMultiport:
    def test_packets_remain_contiguous_per_port(self):
        """Each packet streams through one injection port; reassembly at
        the destination must still see whole packets."""
        system = build(open_loop_variant(CP_CR_2P))
        mc = system.mesh.index(system.mc_nodes[0])
        got = []
        dest = system.mesh.index(system.compute_nodes[0])
        system.set_ejection_handler(dest, lambda p, c: got.append(p))
        for _ in range(10):
            system.try_inject(read_reply(mc, dest), 0)
        system.run_until_idle(max_cycles=100_000)
        assert len(got) == 10
