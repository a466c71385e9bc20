"""Tests for dimension-ordered routing."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.noc.packet import RouteGroup, TrafficClass, read_request
from repro.noc.routing import DorXY, DorYX, minimal_hops
from repro.noc.topology import Coord, Direction, Mesh

MESH = Mesh(6, 6)
coords = st.builds(Coord, st.integers(0, 5), st.integers(0, 5))


def walk(routing, src, dest, max_hops=50):
    packet = read_request(MESH.index(src), MESH.index(dest))
    routing.plan(packet, random.Random(0))
    path = [src]
    coord = src
    for _ in range(max_hops):
        port = routing.next_port(MESH.index(coord), packet)
        if port is Direction.EJECT:
            return path
        coord = coord.neighbor(port)
        path.append(coord)
    raise AssertionError("route did not terminate")


class TestDorXY:
    def test_same_node_ejects(self):
        r = DorXY(MESH)
        p = read_request(MESH.index(Coord(2, 2)), MESH.index(Coord(2, 2)))
        r.plan(p)
        assert r.next_port(MESH.index(Coord(2, 2)), p) is Direction.EJECT

    def test_x_first(self):
        path = walk(DorXY(MESH), Coord(0, 0), Coord(3, 2))
        # X-coordinate settles before Y moves.
        xs = [c.x for c in path]
        assert xs == sorted(xs)
        assert path[3] == Coord(3, 0)

    def test_turn_node(self):
        path = walk(DorXY(MESH), Coord(1, 4), Coord(4, 1))
        assert Coord(4, 4) in path      # the XY turn node

    def test_plan_uses_any_group(self):
        p = read_request(MESH.index(Coord(0, 0)), MESH.index(Coord(3, 3)))
        DorXY(MESH).plan(p)
        assert p.group is RouteGroup.ANY

    @given(coords, coords)
    def test_reaches_destination_minimally(self, src, dest):
        path = walk(DorXY(MESH), src, dest)
        assert path[-1] == dest
        assert len(path) - 1 == minimal_hops(src, dest)

    @given(coords, coords)
    def test_at_most_one_turn(self, src, dest):
        path = walk(DorXY(MESH), src, dest)
        turns = 0
        for a, b, c in zip(path, path[1:], path[2:]):
            moved_x = a.x != b.x
            moves_y = b.y != c.y
            if moved_x and moves_y:
                turns += 1
        assert turns <= 1


class TestDorYX:
    def test_y_first(self):
        path = walk(DorYX(MESH), Coord(0, 0), Coord(3, 2))
        ys = [c.y for c in path]
        assert ys == sorted(ys)
        assert path[2] == Coord(0, 2)

    @given(coords, coords)
    def test_reaches_destination_minimally(self, src, dest):
        path = walk(DorYX(MESH), src, dest)
        assert path[-1] == dest
        assert len(path) - 1 == minimal_hops(src, dest)

    @given(coords, coords)
    def test_xy_and_yx_same_length(self, src, dest):
        assert len(walk(DorXY(MESH), src, dest)) == \
            len(walk(DorYX(MESH), src, dest))


class TestMinimalHops:
    def test_values(self):
        assert minimal_hops(Coord(0, 0), Coord(5, 5)) == 10
        assert minimal_hops(Coord(2, 2), Coord(2, 2)) == 0
