"""Tests for the checkerboard routing algorithm (the paper's Section IV-B).

These verify the properties the paper claims: minimal hop count, no
dimension change at a half-router, correct case classification, and the
deadlock-freedom precondition (the only group transition is YX -> XY at the
two-phase intermediate).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checkerboard_routing import (CheckerboardRouting, RouteCase,
                                             UnroutableError, classify,
                                             intermediate_candidates,
                                             is_half_router, trace_route)
from repro.core.placement import checkerboard_placement
from repro.noc.packet import RouteGroup, read_request
from repro.noc.routing import minimal_hops
from repro.noc.topology import Coord, Mesh

MESH = Mesh(6, 6)
coords = st.builds(Coord, st.integers(0, 5), st.integers(0, 5))


def turn_nodes(path):
    """Interior nodes where the route changes dimension."""
    result = []
    for a, b, c in zip(path, path[1:], path[2:]):
        dim_in = "x" if a.x != b.x else "y"
        dim_out = "x" if b.x != c.x else "y"
        if dim_in != dim_out:
            result.append(b)
    return result


class TestClassify:
    def test_local(self):
        assert classify(Coord(1, 1), Coord(1, 1)) is RouteCase.LOCAL

    def test_straight_row_and_column(self):
        assert classify(Coord(0, 2), Coord(5, 2)) is RouteCase.STRAIGHT
        assert classify(Coord(3, 0), Coord(3, 5)) is RouteCase.STRAIGHT

    def test_case1_full_to_half_odd_columns(self):
        # Full (0,0) to half (1,2): one column away, not same row -> the XY
        # turn (1,0) is a half-router, the YX turn (0,2) is full.
        assert classify(Coord(0, 0), Coord(1, 2)) is RouteCase.YX

    def test_case2_half_to_half_even_columns(self):
        # Half (1,0) to half (3,2): two columns away, not same row; both
        # turn nodes (3,0) and (1,2) are half-routers.
        assert classify(Coord(1, 0), Coord(3, 2)) is RouteCase.TWO_PHASE

    def test_unroutable_full_pair(self):
        # Full (0,0) to full (1,1): both turns are half-routers.
        assert classify(Coord(0, 0), Coord(1, 1)) is RouteCase.UNROUTABLE

    def test_xy_when_turn_is_full(self):
        # (0,0) -> (2,1): XY turn (2,0) is a full-router.
        assert classify(Coord(0, 0), Coord(2, 1)) is RouteCase.XY

    @given(coords, coords)
    def test_two_phase_only_between_half_routers(self, src, dest):
        if classify(src, dest) is RouteCase.TWO_PHASE:
            assert is_half_router(src) and is_half_router(dest)
            assert (dest.x - src.x) % 2 == 0

    @given(coords, coords)
    def test_unroutable_only_between_full_routers(self, src, dest):
        if classify(src, dest) is RouteCase.UNROUTABLE:
            assert not is_half_router(src) and not is_half_router(dest)


class TestIntermediateCandidates:
    @given(coords, coords)
    def test_candidates_valid(self, src, dest):
        if classify(src, dest) is not RouteCase.TWO_PHASE:
            return
        cands = intermediate_candidates(MESH, src, dest)
        assert cands, "two-phase pair must have an intermediate"
        for c in cands:
            # Full-router, inside the minimal quadrant, even columns from
            # the source, not in the source's row (Section IV-B).
            assert not is_half_router(c)
            assert min(src.x, dest.x) <= c.x <= max(src.x, dest.x)
            assert min(src.y, dest.y) <= c.y <= max(src.y, dest.y)
            assert (c.x - src.x) % 2 == 0
            assert c.y != src.y


class TestRouting:
    def setup_method(self):
        self.routing = CheckerboardRouting(MESH)
        self.rng = random.Random(7)

    def routable_pairs(self):
        for src in MESH.coords():
            for dest in MESH.coords():
                if classify(src, dest) is not RouteCase.UNROUTABLE:
                    yield src, dest

    def test_all_routable_pairs_minimal(self):
        """CR is minimal for every routable pair on the 6x6 mesh."""
        for src, dest in self.routable_pairs():
            trace = trace_route(MESH, self.routing, src, dest, self.rng)
            assert trace.path[-1] == dest
            assert trace.hops == minimal_hops(src, dest), (src, dest)

    def test_no_turn_at_half_router_ever(self):
        """The defining constraint: no dimension change at a half-router."""
        for src, dest in self.routable_pairs():
            trace = trace_route(MESH, self.routing, src, dest, self.rng)
            for node in turn_nodes(trace.path):
                assert not is_half_router(node), (src, dest, trace.path)

    def test_unroutable_raises(self):
        packet = read_request(MESH.index(Coord(0, 0)), MESH.index(Coord(1, 1)))
        with pytest.raises(UnroutableError):
            self.routing.plan(packet, self.rng)
        with pytest.raises(UnroutableError):     # also on a second call
            self.routing.plan(packet, self.rng)

    @pytest.mark.parametrize("policy", ["random", "first"])
    def test_memoized_plan_matches_classification_draw_for_draw(self,
                                                                 policy):
        """Every pair, planned twice (a memo miss, then a hit), gets the
        plan Section IV-B's classification gives, and draws from the RNG
        exactly as often: one ``choice`` per random two-phase packet."""
        routing = CheckerboardRouting(MESH, intermediate_policy=policy)
        rng, expected_rng = random.Random(3), random.Random(3)
        pairs = list(self.routable_pairs())
        for src, dest in pairs + pairs:
            packet = read_request(MESH.index(src), MESH.index(dest))
            routing.plan(packet, rng)
            case = classify(src, dest)
            if case is RouteCase.TWO_PHASE:
                candidates = intermediate_candidates(MESH, src, dest)
                expected = (RouteGroup.YX, MESH.index(
                    candidates[0] if policy == "first"
                    else expected_rng.choice(candidates)), 0)
            else:
                group = (RouteGroup.YX if case is RouteCase.YX
                         else RouteGroup.XY)
                expected = (group, None, 1)
            assert (packet.group, packet.intermediate,
                    packet.phase) == expected, (src, dest)
        assert rng.getstate() == expected_rng.getstate()

    def test_group_transition_only_yx_to_xy(self):
        """Deadlock freedom: groups may only go YX -> XY along a route."""
        order = {RouteGroup.YX: 0, RouteGroup.XY: 1}
        for src, dest in self.routable_pairs():
            trace = trace_route(MESH, self.routing, src, dest, self.rng)
            ranks = [order[g] for g in trace.groups]
            assert ranks == sorted(ranks), (src, dest, trace.groups)

    def test_two_phase_passes_through_intermediate(self):
        src, dest = Coord(1, 0), Coord(3, 2)
        packet = read_request(MESH.index(src), MESH.index(dest))
        self.routing.plan(packet, self.rng)
        assert packet.phase == 0
        intermediate = packet.intermediate
        trace = trace_route(MESH, self.routing, src, dest,
                            random.Random(7))
        assert intermediate is not None

    def test_random_intermediate_selection_varies(self):
        src, dest = Coord(1, 0), Coord(5, 4)
        seen = set()
        for seed in range(40):
            packet = read_request(MESH.index(src), MESH.index(dest))
            self.routing.plan(packet, random.Random(seed))
            seen.add(packet.intermediate)
        assert len(seen) > 1, "intermediate should be randomised"

    def test_mc_traffic_always_routable(self):
        """Compute <-> MC pairs are routable in both directions when MCs
        sit at half-routers (the architecture's guarantee)."""
        mcs = checkerboard_placement(MESH)
        cores = [c for c in MESH.coords() if c not in set(mcs)]
        for core in cores:
            for mc in mcs:
                assert classify(core, mc) is not RouteCase.UNROUTABLE
                assert classify(mc, core) is not RouteCase.UNROUTABLE

    def test_plan_sets_group_for_straight(self):
        packet = read_request(MESH.index(Coord(0, 0)), MESH.index(Coord(5, 0)))
        self.routing.plan(packet, self.rng)
        assert packet.group is RouteGroup.XY
        assert packet.intermediate is None


class TestVcUsageBalance:
    def test_both_groups_used_across_pairs(self):
        """Like the paper's RD observation (60.1 % of packets on the YX VC),
        both routing VCs should see use across MC traffic."""
        routing = CheckerboardRouting(MESH)
        rng = random.Random(3)
        mcs = set(checkerboard_placement(MESH))
        groups = {RouteGroup.XY: 0, RouteGroup.YX: 0}
        for mc in mcs:
            for core in MESH.coords():
                if core in mcs:
                    continue
                packet = read_request(MESH.index(mc), MESH.index(core))
                routing.plan(packet, rng)
                groups[packet.group] += 1
        assert groups[RouteGroup.XY] > 0
        assert groups[RouteGroup.YX] > 0
