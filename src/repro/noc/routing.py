"""Routing algorithms: the base interface and dimension-ordered routing.

A routing algorithm has two duties:

* ``plan(packet)`` — run once at injection; chooses the route group
  (XY / YX / ANY) and, for two-phase checkerboard routes, the intermediate
  full-router.  The paper implements the group choice as a single header bit
  (Section IV-B).
* ``next_port(node, packet)`` — run at each router's route-computation
  stage; returns the output ``Direction`` or ``Direction.EJECT``.  It may
  read only ``node`` and the packet's ``src``, ``dest``, ``group``,
  ``intermediate`` and ``phase``, and may write only ``group`` and
  ``phase``.  The compiled kernel relies on this: it walks each route
  once and memoizes it under exactly those fields (plus the traffic
  class, which selects the VCs).  A routing that declares
  ``route_params`` shares those memos with every network of equal
  signature in the process (see ``route_signature``).

Checkerboard routing (the paper's contribution) lives in
``repro.core.checkerboard_routing`` and implements this same interface.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from .packet import Packet, RouteGroup
from .topology import Coord, Direction, Mesh

_pair_memos: Dict[tuple, dict] = {}


def pair_memo(routing: "RoutingAlgorithm") -> dict:
    """A memo of pure functions of a node pair (a, b) under ``routing``,
    keyed by ``a * num_nodes + b``, shared by the routings of equal
    signature in the process, like route tables."""
    signature = routing.route_signature()
    if signature is None:
        return {}
    return _pair_memos.setdefault(signature, {})


class RoutingAlgorithm:
    """Base class for oblivious routing algorithms on a mesh."""

    #: Number of routing VCs the algorithm needs per protocol class.
    required_route_vcs = 1

    #: True when ``plan`` writes exactly the ``Packet`` routing-state
    #: defaults (group=ANY, intermediate=None, phase=1) — the network's
    #: injection path may then skip the call for freshly built packets.
    plan_writes_defaults = False

    #: Names of the attributes besides the class and the mesh size that
    #: ``next_port`` depends on, or None if routes must not be shared
    #: between networks.
    route_params: Optional[Tuple[str, ...]] = None

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh

    def route_signature(self) -> Optional[tuple]:
        """Hashable identity of ``next_port`` as a function of the
        node and the packet's routing fields: networks whose
        routings have equal signatures (on equal meshes, routers and VC
        configurations) share one process-wide route table.  None keeps
        a table per network."""
        if self.route_params is None:
            return None
        return (type(self), self.mesh.cols, self.mesh.rows,
                *(getattr(self, name) for name in self.route_params))

    def plan(self, packet: Packet, rng: Optional[random.Random] = None) -> None:
        raise NotImplementedError

    def next_port(self, node: int, packet: Packet) -> Direction:
        """Output port at node ``node``.  Reads only ``packet.src``,
        ``dest``, ``group``, ``intermediate`` and ``phase``; writes only
        ``group`` and ``phase`` (so a route is a function of those
        fields)."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def _dor_step(self, node: int, dest: int, order: str) -> Direction:
        """One DOR step from ``node`` toward ``dest``: complete the first
        axis of ``order`` then the second, then eject."""
        cols = self.mesh.cols
        x, y = node % cols, node // cols
        dx, dy = dest % cols, dest // cols
        for axis in order:
            if axis == "x" and x != dx:
                return Direction.EAST if dx > x else Direction.WEST
            if axis == "y" and y != dy:
                return Direction.SOUTH if dy > y else Direction.NORTH
        return Direction.EJECT


class DorXY(RoutingAlgorithm):
    """Dimension-ordered XY routing (the baseline, Table III)."""

    group = RouteGroup.XY
    order = "xy"
    plan_writes_defaults = True
    route_params = ()

    def __init__(self, mesh: Mesh) -> None:
        super().__init__(mesh)
        # DOR is a pure function of (node, dest); memoizing the per-hop
        # decision takes the arithmetic off the cycle loop.
        self._n = mesh.num_nodes
        self._memo = pair_memo(self)

    def plan(self, packet: Packet, rng: Optional[random.Random] = None) -> None:
        packet.group = RouteGroup.ANY  # any VC of the class may be used
        packet.intermediate = None
        packet.phase = 1

    def next_port(self, node: int, packet: Packet) -> Direction:
        key = node * self._n + packet.dest
        port = self._memo.get(key)
        if port is None:
            port = self._memo[key] = self._dor_step(node, packet.dest,
                                                    self.order)
        return port


class DorYX(DorXY):
    """Dimension-ordered YX routing."""

    group = RouteGroup.YX
    order = "yx"


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
    route_params = ()

    def __init__(self, mesh: Mesh) -> None:
        super().__init__(mesh)
        self._n = mesh.num_nodes
        #: Per (src, dest) pair, the intermediate candidates, so each
        #: pair's quadrant is enumerated once.
        self._candidates = pair_memo(self)

    def plan(self, packet: Packet, rng: Optional[random.Random] = None) -> None:
        src, dest = packet.src, packet.dest
        key = src * self._n + dest
        candidates = self._candidates.get(key)
        if candidates is None:
            cols = self.mesh.cols
            sx, sy, dx, dy = src % cols, src // cols, dest % cols, dest // cols
            candidates = self._candidates[key] = [
                y * cols + x
                for x in range(min(sx, dx), max(sx, dx) + 1)
                for y in range(min(sy, dy), max(sy, dy) + 1)
                if y * cols + x not in (src, dest)]
        if not candidates:
            packet.group = RouteGroup.XY
            packet.intermediate = None
            packet.phase = 1
            return
        rng = rng if rng is not None else random
        packet.intermediate = rng.choice(candidates)
        packet.group = RouteGroup.YX       # phase-one VC
        packet.phase = 0

    def next_port(self, node: int, packet: Packet) -> Direction:
        if packet.phase == 0:
            if node == packet.intermediate:
                packet.phase = 1
                packet.group = RouteGroup.XY
            else:
                return self._dor_step(node, packet.intermediate, "xy")
        return self._dor_step(node, packet.dest, "xy")


def minimal_hops(src: Coord, dest: Coord) -> int:
    """Minimum hop count (router-to-router channel traversals)."""
    return src.manhattan(dest)
