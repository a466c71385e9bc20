"""VC discipline in live networks: protocol classes and routing groups
never share virtual channels."""

import random

from repro.core.builder import CP_CR, build, open_loop_variant
from repro.noc.packet import RouteGroup, TrafficClass, read_reply, \
    read_request
from repro.noc.vc import shared_vc_config


def observed_vc_usage(system, packets, cycles=4000):
    """Run traffic and record which VC indices each (class, group) pair
    occupied, by auditing output-port ownership every cycle."""
    for node in list(system.mesh.coords()):
        system.set_ejection_handler(system.mesh.index(node),
                                    lambda p, c: None)
    for p in packets:
        system.try_inject(p, 0)
    usage = {}
    net = system.networks[0]
    for _ in range(cycles):
        system.step()
        for router in net.routers.values():
            for in_port, vcs in router.in_ports.items():
                for vc_idx, vc in enumerate(vcs):
                    if vc.buffer:
                        pkt = vc.buffer[0].packet
                        # Two-phase packets flip group at the intermediate
                        # while flits allocated under the old group are
                        # still buffered; audit them under both groups.
                        two_phase = pkt.intermediate is not None
                        usage.setdefault(
                            (pkt.traffic_class, pkt.group, two_phase),
                            set()).add(vc_idx)
        if system.idle:
            break
    assert system.idle, "traffic did not drain"
    return usage


class TestVcDiscipline:
    def test_classes_and_groups_partition_vcs(self):
        system = build(open_loop_variant(CP_CR))
        rng = random.Random(0)
        packets = []
        for _ in range(60):
            core = system.mesh.index(rng.choice(system.compute_nodes))
            mc = system.mesh.index(rng.choice(system.mc_nodes))
            packets.append(read_request(core, mc))
            packets.append(read_reply(mc, core))
        usage = observed_vc_usage(system, packets)

        from repro.noc.packet import RouteGroup as RG
        cfg = system.networks[0].vc_config
        for (tclass, group, two_phase), vcs in usage.items():
            allowed = set(cfg.allowed_vcs(tclass, group))
            if two_phase:
                allowed |= set(cfg.allowed_vcs(tclass, RG.XY))
                allowed |= set(cfg.allowed_vcs(tclass, RG.YX))
            assert vcs <= allowed, (tclass, group, vcs, allowed)

    def test_request_and_reply_vcs_disjoint_in_flight(self):
        system = build(open_loop_variant(CP_CR))
        rng = random.Random(1)
        packets = []
        for _ in range(40):
            core = system.mesh.index(rng.choice(system.compute_nodes))
            mc = system.mesh.index(rng.choice(system.mc_nodes))
            packets.append(read_request(core, mc))
            packets.append(read_reply(mc, core))
        usage = observed_vc_usage(system, packets)
        request_vcs = set()
        reply_vcs = set()
        for (tclass, _group, _tp), vcs in usage.items():
            (request_vcs if tclass is TrafficClass.REQUEST
             else reply_vcs).update(vcs)
        assert request_vcs.isdisjoint(reply_vcs)

    def test_xy_and_yx_groups_use_distinct_vcs(self):
        system = build(open_loop_variant(CP_CR))
        rng = random.Random(2)
        node = system.mesh.index
        packets = [read_reply(node(mc), node(core))
                   for mc in system.mc_nodes
                   for core in rng.sample(system.compute_nodes, 10)]
        usage = observed_vc_usage(system, packets)
        # Exclude two-phase packets, which legitimately use both groups.
        xy = usage.get((TrafficClass.REPLY, RouteGroup.XY, False), set())
        yx = usage.get((TrafficClass.REPLY, RouteGroup.YX, False), set())
        assert xy and yx, "both routing groups should be exercised"
        assert xy.isdisjoint(yx)
