"""Routing algorithms: the base interface and dimension-ordered routing.

A routing algorithm has two duties:

* ``plan(packet)`` — run once at injection; chooses the route group
  (XY / YX / ANY) and, for two-phase checkerboard routes, the intermediate
  full-router.  The paper implements the group choice as a single header bit
  (Section IV-B).
* ``next_port(coord, packet)`` — run at each router's route-computation
  stage; returns the output ``Direction`` or ``Direction.EJECT``.  It may
  read only ``coord`` and the packet's ``src``, ``dest``, ``group``,
  ``intermediate`` and ``phase``, and may write only ``group`` and
  ``phase``.  The compiled kernel relies on this: it walks each route
  once at injection and memoizes it under exactly those fields (plus
  the traffic class, which selects the VCs).

Checkerboard routing (the paper's contribution) lives in
``repro.core.checkerboard_routing`` and implements this same interface.
"""

from __future__ import annotations

import random
from typing import Optional

from .packet import Packet, RouteGroup
from .topology import Coord, Direction, Mesh


class RoutingAlgorithm:
    """Base class for oblivious routing algorithms on a mesh."""

    #: Number of routing VCs the algorithm needs per protocol class.
    required_route_vcs = 1

    #: True when ``plan`` writes exactly the ``Packet`` routing-state
    #: defaults (group=ANY, intermediate=None, phase=1) — the network's
    #: injection path may then skip the call for freshly built packets.
    plan_writes_defaults = False

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh

    def plan(self, packet: Packet, rng: Optional[random.Random] = None) -> None:
        raise NotImplementedError

    def next_port(self, coord: Coord, packet: Packet) -> Direction:
        """Output port at ``coord``.  Reads only ``packet.src``, ``dest``,
        ``group``, ``intermediate`` and ``phase``; writes only ``group``
        and ``phase`` (so a route is a function of those fields)."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def _dor_step(self, coord: Coord, dest: Coord, order: str) -> Direction:
        """One DOR step: complete the first axis of ``order`` then the
        second, then eject."""
        first, second = order[0], order[1]
        for axis in (first, second):
            if axis == "x" and coord.x != dest.x:
                return self.mesh.direction_towards(coord, dest, "x")
            if axis == "y" and coord.y != dest.y:
                return self.mesh.direction_towards(coord, dest, "y")
        return Direction.EJECT


class DorXY(RoutingAlgorithm):
    """Dimension-ordered XY routing (the baseline, Table III)."""

    group = RouteGroup.XY
    plan_writes_defaults = True

    def __init__(self, mesh: Mesh) -> None:
        super().__init__(mesh)
        # DOR is a pure function of (coord, dest); memoizing the per-hop
        # decision takes the arithmetic off the cycle loop.  Bounded by
        # the (coord, dest) pairs actually routed — at most mesh^2.
        self._memo: dict = {}

    def plan(self, packet: Packet, rng: Optional[random.Random] = None) -> None:
        packet.group = RouteGroup.ANY  # any VC of the class may be used
        packet.intermediate = None
        packet.phase = 1

    def next_port(self, coord: Coord, packet: Packet) -> Direction:
        key = (coord, packet.dest)
        port = self._memo.get(key)
        if port is None:
            port = self._memo[key] = self._dor_step(coord, key[1], "xy")
        return port


class DorYX(RoutingAlgorithm):
    """Dimension-ordered YX routing."""

    group = RouteGroup.YX
    plan_writes_defaults = True

    def __init__(self, mesh: Mesh) -> None:
        super().__init__(mesh)
        self._memo: dict = {}

    def plan(self, packet: Packet, rng: Optional[random.Random] = None) -> None:
        packet.group = RouteGroup.ANY
        packet.intermediate = None
        packet.phase = 1

    def next_port(self, coord: Coord, packet: Packet) -> Direction:
        key = (coord, packet.dest)
        port = self._memo.get(key)
        if port is None:
            port = self._memo[key] = self._dor_step(coord, key[1], "yx")
        return port


class Romm2Phase(RoutingAlgorithm):
    """ROMM two-phase randomised minimal routing (Nesson & Johnsson), the
    algorithm the paper compares checkerboard routing against (Section VI).

    Phase one routes XY to a random intermediate inside the minimal
    quadrant, phase two routes XY to the destination.  Each phase uses its
    own routing VC (phase one on the YX-group VC, phase two on the
    XY-group VC), which keeps the VC dependence acyclic.  Requires
    full-router connectivity — ROMM packets may turn anywhere, which is
    exactly why it cannot run on the cheaper checkerboard mesh.
    """

    required_route_vcs = 2

    def plan(self, packet: Packet, rng: Optional[random.Random] = None) -> None:
        rng = rng if rng is not None else random
        src, dest = packet.src, packet.dest
        xs = range(min(src.x, dest.x), max(src.x, dest.x) + 1)
        ys = range(min(src.y, dest.y), max(src.y, dest.y) + 1)
        candidates = [Coord(x, y) for x in xs for y in ys
                      if Coord(x, y) not in (src, dest)]
        if not candidates:
            packet.group = RouteGroup.XY
            packet.intermediate = None
            packet.phase = 1
            return
        packet.intermediate = rng.choice(candidates)
        packet.group = RouteGroup.YX       # phase-one VC
        packet.phase = 0

    def next_port(self, coord: Coord, packet: Packet) -> Direction:
        if packet.phase == 0:
            if coord == packet.intermediate:
                packet.phase = 1
                packet.group = RouteGroup.XY
            else:
                return self._dor_step(coord, packet.intermediate, "xy")
        return self._dor_step(coord, packet.dest, "xy")


def minimal_hops(src: Coord, dest: Coord) -> int:
    """Minimum hop count (router-to-router channel traversals)."""
    return src.manhattan(dest)
