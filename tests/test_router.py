"""Unit tests for the VC wormhole router."""

import pytest

from repro.noc.channel import Channel
from repro.noc.packet import TrafficClass, read_reply, read_request
from repro.noc.router import (Router, RouterSpec, RoutingViolation,
                              full_connectivity, half_connectivity)
from repro.noc.routing import DorXY
from repro.noc.topology import (Coord, Direction, Mesh, ejection_port,
                                injection_port)
from repro.noc.vc import shared_vc_config

MESH = Mesh(6, 6)


class TestConnectivity:
    def test_full_allows_turns(self):
        assert full_connectivity(Direction.WEST, Direction.NORTH)
        assert full_connectivity(Direction.SOUTH, Direction.EAST)

    def test_full_allows_straight_through(self):
        assert full_connectivity(Direction.WEST, Direction.EAST)
        assert full_connectivity(Direction.NORTH, Direction.SOUTH)

    def test_full_forbids_uturn(self):
        for d in (Direction.NORTH, Direction.SOUTH, Direction.EAST,
                  Direction.WEST):
            assert not full_connectivity(d, d)

    def test_full_terminals(self):
        assert full_connectivity(injection_port(), Direction.EAST)
        assert full_connectivity(Direction.EAST, ejection_port())
        assert not full_connectivity(Direction.EAST, injection_port())

    def test_half_straight_through_only(self):
        assert half_connectivity(Direction.EAST, Direction.WEST)
        assert half_connectivity(Direction.WEST, Direction.EAST)
        assert half_connectivity(Direction.NORTH, Direction.SOUTH)
        assert half_connectivity(Direction.SOUTH, Direction.NORTH)

    def test_half_forbids_dimension_change(self):
        assert not half_connectivity(Direction.EAST, Direction.NORTH)
        assert not half_connectivity(Direction.EAST, Direction.SOUTH)
        assert not half_connectivity(Direction.NORTH, Direction.EAST)
        assert not half_connectivity(Direction.SOUTH, Direction.WEST)

    def test_half_injection_fully_connected(self):
        for d in (Direction.NORTH, Direction.SOUTH, Direction.EAST,
                  Direction.WEST):
            assert half_connectivity(injection_port(), d)
        assert half_connectivity(injection_port(), ejection_port())

    def test_half_ejection_reachable_from_all(self):
        for d in (Direction.NORTH, Direction.SOUTH, Direction.EAST,
                  Direction.WEST):
            assert half_connectivity(d, ejection_port())


def make_router(coord=Coord(2, 2), half=False, latency=4, inj=1, ej=1,
                vcs_per_class=1, depth=8):
    spec = RouterSpec(coord, half=half, pipeline_latency=latency,
                      num_inject_ports=inj, num_eject_ports=ej)
    router = Router(spec, shared_vc_config(vcs_per_class), depth, DorXY(MESH))
    router.attach_ejection(sink=object())
    for direction, neighbor in MESH.neighbors(coord):
        out = Channel()
        out.connect(router, direction, _NullRouter(), direction.opposite())
        router.attach_output_channel(direction, out)
        inc = Channel()
        router.attach_input_channel(direction.opposite().opposite()
                                    if False else direction, inc)
    router.finalize()
    return router


class _NullRouter:
    def deliver_flit(self, port, vc, flit, cycle):
        self.last = (port, vc, flit, cycle)

    def deliver_credit(self, port, vc):
        pass


class TestRouterBasics:
    def test_idle_router_does_nothing(self):
        router = make_router()
        assert router.step(1) == []
        assert router.occupancy == 0

    def test_local_delivery_via_ejection(self):
        router = make_router()
        packet = read_request(MESH.index(Coord(2, 2)),
                              MESH.index(Coord(2, 2)), created=0)
        packet.group = packet.group  # plan not needed for DOR ANY
        (flit,) = packet.make_flits(16)
        router.deliver_flit(injection_port(), 0, flit, 0)
        ejected = []
        for cycle in range(1, 12):
            ejected += router.step(cycle)
        assert len(ejected) == 1
        assert ejected[0][0] is flit

    def test_pipeline_latency_respected(self):
        router = make_router(latency=4)
        packet = read_request(MESH.index(Coord(2, 2)),
                              MESH.index(Coord(2, 2)), created=0)
        (flit,) = packet.make_flits(16)
        router.deliver_flit(injection_port(), 0, flit, 0)
        # ready = 0 + 4, so steps 1..3 must not eject.
        for cycle in range(1, 4):
            assert router.step(cycle) == []
        assert len(router.step(4)) == 1

    def test_one_cycle_router_is_faster(self):
        router = make_router(latency=1)
        packet = read_request(MESH.index(Coord(2, 2)),
                              MESH.index(Coord(2, 2)), created=0)
        (flit,) = packet.make_flits(16)
        router.deliver_flit(injection_port(), 0, flit, 0)
        assert len(router.step(1)) == 1

    def test_buffer_overflow_detected(self):
        router = make_router(depth=2)
        packet = read_reply(MESH.index(Coord(0, 2)),
                            MESH.index(Coord(5, 2)), created=0)
        flits = packet.make_flits(16)
        router.deliver_flit(Direction.WEST, 0, flits[0], 0)
        router.deliver_flit(Direction.WEST, 0, flits[1], 0)
        with pytest.raises(RuntimeError):
            router.deliver_flit(Direction.WEST, 0, flits[2], 0)

    def test_occupancy_tracking(self):
        router = make_router()
        packet = read_reply(MESH.index(Coord(2, 2)),
                            MESH.index(Coord(2, 2)), created=0)
        for flit in packet.make_flits(16):
            router.deliver_flit(injection_port(), 0, flit, 0)
        assert router.occupancy == 4
        for cycle in range(1, 20):
            router.step(cycle)
        assert router.occupancy == 0


class TestHalfRouterEnforcement:
    def test_illegal_turn_raises(self):
        router = make_router(coord=Coord(2, 3), half=True)  # parity 1
        # Packet arriving from the WEST heading NORTH would need a turn.
        packet = read_request(MESH.index(Coord(0, 3)),
                              MESH.index(Coord(2, 0)), created=0)
        (flit,) = packet.make_flits(16)
        router.deliver_flit(Direction.WEST, 0, flit, 0)
        with pytest.raises(RoutingViolation):
            for cycle in range(1, 10):
                router.step(cycle)

    def test_straight_through_allowed(self):
        router = make_router(coord=Coord(2, 3), half=True)
        packet = read_request(MESH.index(Coord(0, 3)),
                              MESH.index(Coord(5, 3)), created=0)
        (flit,) = packet.make_flits(16)
        router.deliver_flit(Direction.WEST, 0, flit, 0)
        for cycle in range(1, 10):
            router.step(cycle)
        assert router.occupancy == 0   # forwarded out the EAST channel


class TestMultiPortEjection:
    def test_two_ejection_ports_double_bandwidth(self):
        """Two packets destined locally can eject in parallel."""
        router1 = make_router(ej=1, vcs_per_class=2)
        router2 = make_router(ej=2, vcs_per_class=2)
        counts = {}
        for router in (router1, router2):
            for port, src in ((Direction.WEST, Coord(0, 2)),
                              (Direction.EAST, Coord(5, 2))):
                packet = read_request(MESH.index(src),
                                      MESH.index(Coord(2, 2)), created=0)
                (flit,) = packet.make_flits(16)
                router.deliver_flit(port, 0, flit, 0)
            first = None
            for cycle in range(1, 10):
                out = router.step(cycle)
                if out and first is None:
                    first = len(out)
            counts[router] = first
        assert counts[router1] == 1
        assert counts[router2] == 2


class TestFreeVcFairness:
    """Regression tests for the shared-rotation-pointer bug: one pointer
    reused modulo different ``allowed`` tuples biased the pick and could
    starve a VC whenever two classes allocated through the same port."""

    @staticmethod
    def out_port(num_vcs=4):
        from repro.noc.router import _OutputPort
        return _OutputPort(Direction.EAST, num_vcs, buffer_depth=8,
                           channel=Channel())

    def test_rotates_within_one_class(self):
        port = self.out_port()
        picks = [port.free_vc((0, 1)) for _ in range(4)]
        assert picks == [0, 1, 0, 1]

    def test_classes_rotate_independently(self):
        port = self.out_port()
        picks = [port.free_vc(allowed)
                 for allowed in ((0, 1), (2, 3), (0, 1), (2, 3))]
        # The buggy shared pointer produced [0, 3, 0, 3], starving VCs
        # 1 and 2 whenever the classes interleaved like this.
        assert picks == [0, 2, 1, 3]

    def test_skips_busy_vcs(self):
        port = self.out_port()
        port.owner[0] = (Direction.WEST, 0)
        assert port.free_vc((0, 1)) == 1
        assert port.free_vc((0, 1)) == 1     # 0 still busy, keep serving 1
        port.owner[1] = (Direction.WEST, 1)
        assert port.free_vc((0, 1)) is None

    def test_both_vcs_of_each_class_used_under_contention(self):
        """Drive requests and replies down one path; every VC of both
        classes must see traffic (the starved-VC symptom of the old bug)."""
        from repro.noc.network import MeshNetwork, NocParams

        mesh = Mesh(4, 1)
        params = NocParams(channel_width=16, source_queue_flits=None)
        specs = {c: RouterSpec(c, pipeline_latency=1)
                 for c in mesh.coords()}
        net = MeshNetwork(mesh, specs, params, shared_vc_config(2),
                          DorXY(mesh), seed=1)
        src, dest = mesh.index(Coord(0, 0)), mesh.index(Coord(3, 0))
        net.set_ejection_handler(dest, lambda p, c: None)
        seen = set()
        for i in range(60):
            net.try_inject(read_request(src, dest), net.cycle)
            net.try_inject(read_reply(src, dest), net.cycle)
            net.step()
            # Read through ``net.routers`` each cycle: that access exports
            # the compiled kernel's state into the router objects.
            watched = net.routers[Coord(2, 0)].in_ports[Direction.WEST]
            seen.update(vc for vc, state in enumerate(watched)
                        if state.buffer)
        net.run_until_idle()
        assert seen == {0, 1, 2, 3}
