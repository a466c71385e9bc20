"""Tests for ROMM two-phase randomised routing."""

import random

from hypothesis import given, strategies as st

from repro.core.builder import CP_ROMM, build
from repro.noc.packet import RouteGroup, read_request
from repro.noc.routing import Romm2Phase, minimal_hops
from repro.noc.topology import Coord, Direction, Mesh

MESH = Mesh(6, 6)
coords = st.builds(Coord, st.integers(0, 5), st.integers(0, 5))


def walk(src, dest, seed=0):
    routing = Romm2Phase(MESH)
    packet = read_request(MESH.index(src), MESH.index(dest))
    routing.plan(packet, random.Random(seed))
    path = [src]
    coord = src
    for _ in range(60):
        port = routing.next_port(MESH.index(coord), packet)
        if port is Direction.EJECT:
            return path, packet
        coord = coord.neighbor(port)
        path.append(coord)
    raise AssertionError("route did not terminate")


class TestRomm:
    @given(coords, coords, st.integers(0, 20))
    def test_minimal_and_correct(self, src, dest, seed):
        path, _ = walk(src, dest, seed)
        assert path[-1] == dest
        assert len(path) - 1 == minimal_hops(src, dest)

    @given(coords, coords, st.integers(0, 20))
    def test_intermediate_inside_minimal_quadrant(self, src, dest, seed):
        routing = Romm2Phase(MESH)
        packet = read_request(MESH.index(src), MESH.index(dest))
        routing.plan(packet, random.Random(seed))
        if packet.intermediate is None:
            return
        i = MESH.coord(packet.intermediate)
        assert min(src.x, dest.x) <= i.x <= max(src.x, dest.x)
        assert min(src.y, dest.y) <= i.y <= max(src.y, dest.y)

    def test_randomisation_spreads_paths(self):
        paths = {tuple(walk(Coord(0, 0), Coord(4, 4), seed)[0])
                 for seed in range(30)}
        assert len(paths) > 3

    @given(coords, coords, st.integers(0, 10))
    def test_phase_groups_ordered(self, src, dest, seed):
        """Phase one on the YX VC, phase two on the XY VC — never back."""
        routing = Romm2Phase(MESH)
        packet = read_request(MESH.index(src), MESH.index(dest))
        routing.plan(packet, random.Random(seed))
        groups = []
        coord = src
        for _ in range(60):
            port = routing.next_port(MESH.index(coord), packet)
            groups.append(packet.group)
            if port is Direction.EJECT:
                break
            coord = coord.neighbor(port)
        rank = {RouteGroup.YX: 0, RouteGroup.XY: 1}
        ranks = [rank[g] for g in groups]
        assert ranks == sorted(ranks)

    def test_memoized_plan_matches_quadrant_draw_for_draw(self):
        """Every pair, planned twice (a memo miss, then a hit), draws its
        intermediate from the whole minimal quadrant minus the endpoints,
        one ``choice`` per packet with a choice to make."""
        routing = Romm2Phase(MESH)
        rng, expected_rng = random.Random(3), random.Random(3)
        pairs = [(s, d) for s in MESH.coords() for d in MESH.coords()]
        for src, dest in pairs + pairs:
            packet = read_request(MESH.index(src), MESH.index(dest))
            routing.plan(packet, rng)
            candidates = [
                Coord(x, y)
                for x in range(min(src.x, dest.x), max(src.x, dest.x) + 1)
                for y in range(min(src.y, dest.y), max(src.y, dest.y) + 1)
                if Coord(x, y) not in (src, dest)]
            expected = ((RouteGroup.YX,
                         MESH.index(expected_rng.choice(candidates)), 0)
                        if candidates else (RouteGroup.XY, None, 1))
            assert (packet.group, packet.intermediate,
                    packet.phase) == expected, (src, dest)
        assert rng.getstate() == expected_rng.getstate()

    def test_adjacent_nodes_single_phase(self):
        path, packet = walk(Coord(0, 0), Coord(1, 0))
        assert packet.intermediate is None
        assert path == [Coord(0, 0), Coord(1, 0)]


class TestRommDesign:
    def test_build_and_deliver(self):
        system = build(CP_ROMM)
        got = []
        dst = system.mesh.index(system.mc_nodes[0])
        system.set_ejection_handler(dst, lambda p, c: got.append(p))
        for core in system.compute_nodes[:6]:
            system.try_inject(read_request(system.mesh.index(core), dst), 0)
        system.run_until_idle()
        assert len(got) == 6

    def test_requires_full_routers(self):
        import dataclasses
        import pytest
        with pytest.raises(ValueError):
            dataclasses.replace(CP_ROMM, half_routers=True).validate()
