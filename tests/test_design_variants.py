"""Tests for the less-travelled design variants: YX DOR, dedicated slicing
under protocol pressure, and custom channel widths."""

import dataclasses

import pytest

from repro.core.builder import (BASELINE, CP_CR, DOUBLE_CP_CR_DEDICATED,
                                NetworkDesign, build, open_loop_variant)
from repro.noc.packet import read_reply, read_request
from repro.noc.topology import Coord

YX_DESIGN = dataclasses.replace(BASELINE, name="TB-DOR-YX",
                                routing="dor_yx")


class TestYxDor:
    def test_builds_and_delivers(self):
        system = build(open_loop_variant(YX_DESIGN))
        got = []
        dst = system.mesh.index(system.mc_nodes[0])
        system.set_ejection_handler(dst, lambda p, c: got.append(p))
        system.try_inject(read_request(system.mesh.index(Coord(2, 2)), dst),
                          0)
        system.run_until_idle()
        assert len(got) == 1

    def test_yx_goes_vertical_first(self):
        system = build(open_loop_variant(YX_DESIGN))
        net = system.networks[0]
        src = system.mesh.index(Coord(0, 2))
        dst = system.mesh.index(Coord(3, 4))
        system.set_ejection_handler(dst, lambda p, c: None)
        system.try_inject(read_request(src, dst), 0)
        system.run_until_idle()
        util = net.channel_utilization()
        # First hop must be downward (south), not east.
        assert util[(Coord(0, 2), Coord(0, 3))] > 0
        assert util[(Coord(0, 2), Coord(1, 2))] == 0


class TestDedicatedSlicing:
    def test_request_slice_never_carries_replies(self):
        system = build(open_loop_variant(DOUBLE_CP_CR_DEDICATED))
        req_net, rep_net = system.networks
        mc = system.mesh.index(system.mc_nodes[0])
        core = system.mesh.index(system.compute_nodes[0])
        system.set_ejection_handler(mc, lambda p, c: None)
        system.set_ejection_handler(core, lambda p, c: None)
        for _ in range(5):
            system.try_inject(read_request(core, mc), 0)
            system.try_inject(read_reply(mc, core), 0)
        system.run_until_idle()
        assert req_net.stats.packets_ejected == 5
        assert rep_net.stats.packets_ejected == 5
        assert req_net.stats.per_class[
            read_reply(mc, core).traffic_class].packets == 0

    def test_protocol_deadlock_free_without_extra_vcs(self):
        """Section IV-C's point: dedicated slices need no protocol VCs.
        Saturate both classes simultaneously and drain."""
        system = build(open_loop_variant(DOUBLE_CP_CR_DEDICATED))
        for node in system.mesh.coords():
            system.set_ejection_handler(system.mesh.index(node),
                                        lambda p, c: None)
        import random
        rng = random.Random(0)
        for _ in range(200):
            core = system.mesh.index(rng.choice(system.compute_nodes))
            mc = system.mesh.index(rng.choice(system.mc_nodes))
            system.try_inject(read_request(core, mc), system.cycle)
            system.try_inject(read_reply(mc, core), system.cycle)
            system.step()
        system.run_until_idle(max_cycles=200_000)
        assert system.stats.packets_ejected == 400


class TestCustomWidths:
    @pytest.mark.parametrize("width", [8, 24, 32, 64])
    def test_any_width_works(self, width):
        design = dataclasses.replace(BASELINE, name=f"w{width}",
                                     channel_width=width,
                                     source_queue_flits=None)
        system = build(design)
        got = []
        dst = system.mesh.index(system.mc_nodes[0])
        system.set_ejection_handler(dst, lambda p, c: got.append(p))
        system.try_inject(read_reply(system.mesh.index(Coord(2, 2)), dst), 0)
        system.run_until_idle()
        assert len(got) == 1

    def test_wider_channel_fewer_flits(self):
        narrow = build(dataclasses.replace(
            BASELINE, name="n", channel_width=8, source_queue_flits=None))
        wide = build(dataclasses.replace(
            BASELINE, name="w", channel_width=64, source_queue_flits=None))
        for system in (narrow, wide):
            dst = system.mesh.index(system.mc_nodes[0])
            system.set_ejection_handler(dst, lambda p, c: None)
            system.try_inject(read_reply(system.mesh.index(Coord(2, 2)),
                                         dst), 0)
            system.run_until_idle()
        assert narrow.stats.flits_ejected == 8
        assert wide.stats.flits_ejected == 1
