"""Checkerboard routing (CR), Section IV-B.

The checkerboard organization alternates full- and half-routers; half-routers
cannot turn (change dimension).  Dimension-ordered routes are still possible
for most source/destination pairs by choosing the dimension order whose turn
lands on a full-router; the remaining case — half-router to half-router an
even number of columns away and not in the same row — needs a two-phase
route through a random intermediate full-router: YX to the intermediate,
then XY to the destination.  Because the intermediate lies inside the
minimal quadrant, CR remains a minimal routing algorithm.

Route-group selection is a single header bit, as in the paper; the group
also selects the routing virtual channel (one VC for XY packets, one for YX
packets per protocol class, like O1Turn) which keeps the algorithm deadlock
free: the only group transition is YX -> XY at the intermediate node, so the
VC dependence graph is acyclic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from ..noc.packet import Packet, RouteGroup, TrafficClass
from ..noc.routing import RoutingAlgorithm, pair_memo
from ..noc.topology import Coord, Direction, Mesh
from .placement import HALF_ROUTER_PARITY


class UnroutableError(RuntimeError):
    """A full-router to full-router pair an odd number of columns (or rows)
    apart cannot be routed in the checkerboard network (Figure 12(a)).
    The architecture avoids this by placing MCs and L2 banks at
    half-routers so full-routers never talk to each other."""


class RouteCase(Enum):
    """Classification of a source/destination pair under CR."""

    LOCAL = "local"              # src == dest
    STRAIGHT = "straight"        # same row or column: no turn needed
    XY = "xy"                    # XY turn node is a full-router
    YX = "yx"                    # YX turn node is a full-router (Case 1)
    TWO_PHASE = "two_phase"      # both turn nodes are half-routers (Case 2)
    UNROUTABLE = "unroutable"    # full-to-full with both turns at halves


def is_half_router(coord: Coord) -> bool:
    """True on the (odd-parity) tiles that get half-routers."""
    return coord.parity() == HALF_ROUTER_PARITY


def classify(src: Coord, dest: Coord) -> RouteCase:
    """Classify the pair according to Section IV-B."""
    if src.x == dest.x and src.y == dest.y:
        return RouteCase.LOCAL
    if src.x == dest.x or src.y == dest.y:
        return RouteCase.STRAIGHT
    xy_turn = Coord(dest.x, src.y)
    yx_turn = Coord(src.x, dest.y)
    if not is_half_router(xy_turn):
        return RouteCase.XY
    if not is_half_router(yx_turn):
        return RouteCase.YX
    if not is_half_router(src) and not is_half_router(dest):
        return RouteCase.UNROUTABLE
    return RouteCase.TWO_PHASE


def intermediate_candidates(mesh: Mesh, src: Coord,
                            dest: Coord) -> List[Coord]:
    """Valid intermediate full-routers for a two-phase route: inside the
    minimal quadrant, an even number of columns from the source, and located
    so that both the YX turn of phase one and the XY turn of phase two land
    on full-routers.  (The parity algebra reduces all of that to
    ``ix ≡ sx (mod 2)`` and ``iy ≡ sx (mod 2)``.)"""
    xs = range(min(src.x, dest.x), max(src.x, dest.x) + 1)
    ys = range(min(src.y, dest.y), max(src.y, dest.y) + 1)
    out = []
    for ix in xs:
        if (ix - src.x) % 2:
            continue
        for iy in ys:
            if (iy + src.x) % 2:
                continue
            if (ix, iy) in ((src.x, src.y), (dest.x, dest.y)):
                continue
            out.append(Coord(ix, iy))
    return out


#: The plans of the pairs that need no intermediate, shared by every pair.
_XY_PLAN = (RouteGroup.XY, None, 1, None)
_YX_PLAN = (RouteGroup.YX, None, 1, None)


class CheckerboardRouting(RoutingAlgorithm):
    """The paper's CR algorithm, implementing the common routing interface."""

    required_route_vcs = 2
    route_params = ("intermediate_policy",)

    def __init__(self, mesh: Mesh, intermediate_policy: str = "random"
                 ) -> None:
        super().__init__(mesh)
        if intermediate_policy not in ("random", "first"):
            raise ValueError(
                f"unknown intermediate policy {intermediate_policy!r}")
        self.intermediate_policy = intermediate_policy
        self._fallback_rng = random.Random(0xC4)
        self._n = mesh.num_nodes
        #: Per (src, dest) pair, its plan: (group, intermediate, phase,
        #: candidates to draw the intermediate from or None), so each pair
        #: is classified once per process and policy.
        self._plans = pair_memo(self)

    def plan(self, packet: Packet,
             rng: Optional[random.Random] = None) -> None:
        key = packet.src * self._n + packet.dest
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._classify(packet.src,
                                                     packet.dest)
        group, intermediate, phase, candidates = plan
        if candidates is not None:
            rng = rng if rng is not None else self._fallback_rng
            intermediate = rng.choice(candidates)
        packet.group = group
        packet.intermediate = intermediate
        packet.phase = phase

    def _classify(self, src: int, dest: int) -> tuple:
        """The memoized plan of one pair of nodes (Section IV-B); raises
        :class:`UnroutableError` for a pair CR cannot route."""
        mesh = self.mesh
        src, dest = mesh.coord(src), mesh.coord(dest)
        case = classify(src, dest)
        if case in (RouteCase.LOCAL, RouteCase.STRAIGHT, RouteCase.XY):
            return _XY_PLAN
        if case is RouteCase.YX:
            return _YX_PLAN
        if case is RouteCase.TWO_PHASE:
            candidates = [mesh.index(c) for c in
                          intermediate_candidates(mesh, src, dest)]
            if not candidates:
                raise UnroutableError(
                    f"no intermediate full-router for {src}->{dest}")
            if self.intermediate_policy == "first":
                return RouteGroup.YX, candidates[0], 0, None
            return RouteGroup.YX, None, 0, candidates
        raise UnroutableError(
            f"{src}->{dest}: full-router pair with both DOR turn nodes at "
            "half-routers")

    def next_port(self, node: int, packet: Packet) -> Direction:
        if packet.phase == 0:
            if node == packet.intermediate:
                # Second phase begins: switch to the XY group (and VC).
                packet.phase = 1
                packet.group = RouteGroup.XY
            else:
                return self._dor_step(node, packet.intermediate, "yx")
        order = "yx" if packet.group is RouteGroup.YX else "xy"
        return self._dor_step(node, packet.dest, order)


@dataclass
class TracedRoute:
    """A fully enumerated route for analysis and testing."""

    path: List[Coord]
    groups: List[RouteGroup]   # group in effect when *leaving* path[i]

    @property
    def hops(self) -> int:
        return len(self.path) - 1


def trace_route(mesh: Mesh, routing: RoutingAlgorithm, src: Coord,
                dest: Coord, rng: Optional[random.Random] = None,
                max_hops: int = 200) -> TracedRoute:
    """Walk a packet hop by hop without simulating the network."""
    packet = Packet(mesh.index(src), mesh.index(dest), 8,
                    traffic_class=TrafficClass.REQUEST)
    routing.plan(packet, rng)
    path = [src]
    groups = []
    coord = src
    for _ in range(max_hops):
        port = routing.next_port(mesh.index(coord), packet)
        groups.append(packet.group)
        if port is Direction.EJECT:
            if coord != dest:
                raise RuntimeError(f"ejected at {coord}, expected {dest}")
            return TracedRoute(path, groups)
        coord = coord.neighbor(port)
        if not mesh.contains(coord):
            raise RuntimeError(f"route left the mesh at {coord}")
        path.append(coord)
    raise RuntimeError(f"route {src}->{dest} exceeded {max_hops} hops")
