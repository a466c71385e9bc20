"""Property-based tests of whole-network invariants under random traffic.

These are the heavyweight guarantees: every injected packet is eventually
delivered exactly once to its destination with all flits, for every design
point, under randomized many-to-few request/reply traffic.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.builder import (BASELINE, CP_CR, CP_ROMM, DOUBLE_CP_CR,
                                DOUBLE_CP_CR_2P, DOUBLE_CP_CR_DEDICATED,
                                THROUGHPUT_EFFECTIVE, build,
                                open_loop_variant)
from repro.noc.packet import read_reply, read_request, write_request

ALL_DESIGNS = [BASELINE, CP_CR, CP_ROMM, DOUBLE_CP_CR,
               DOUBLE_CP_CR_DEDICATED, DOUBLE_CP_CR_2P,
               THROUGHPUT_EFFECTIVE]


def random_mc_traffic(system, rng, count):
    """Generate request/reply pairs between cores and MCs."""
    packets = []
    node = system.mesh.index
    for _ in range(count):
        core = node(rng.choice(system.compute_nodes))
        mc = node(rng.choice(system.mc_nodes))
        kind = rng.randrange(3)
        if kind == 0:
            packets.append(read_request(core, mc))
        elif kind == 1:
            packets.append(write_request(core, mc))
        else:
            packets.append(read_reply(mc, core))
    return packets


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.name)
def test_exactly_once_delivery(design):
    system = build(open_loop_variant(design))
    rng = random.Random(42)
    received = {}
    for node in list(system.mesh.coords()):
        system.set_ejection_handler(
            system.mesh.index(node), lambda p, c: received.__setitem__(
                p.pid, received.get(p.pid, 0) + 1))
    packets = random_mc_traffic(system, rng, 120)
    for p in packets:
        assert system.try_inject(p, 0)
    system.run_until_idle(max_cycles=100_000)
    assert len(received) == 120
    assert all(v == 1 for v in received.values())
    for p in packets:
        assert received[p.pid] == 1
        assert p.ejected >= 0


@pytest.mark.parametrize("design", [BASELINE, CP_CR, THROUGHPUT_EFFECTIVE],
                         ids=lambda d: d.name)
def test_latency_timestamps_consistent(design):
    system = build(open_loop_variant(design))
    done = []
    for node in list(system.mesh.coords()):
        system.set_ejection_handler(system.mesh.index(node),
                                    lambda p, c: done.append(p))
    rng = random.Random(7)
    for p in random_mc_traffic(system, rng, 60):
        system.try_inject(p, system.cycle)
    system.run_until_idle(max_cycles=100_000)
    for p in done:
        assert p.injected >= p.created
        assert p.ejected > p.injected
        assert p.network_latency >= 2   # at least a router + channel


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 1000), count=st.integers(1, 60))
def test_checkerboard_conserves_random_traffic(seed, count):
    system = build(open_loop_variant(CP_CR))
    rng = random.Random(seed)
    got = []
    for node in list(system.mesh.coords()):
        system.set_ejection_handler(system.mesh.index(node),
                                    lambda p, c: got.append(p))
    for p in random_mc_traffic(system, rng, count):
        system.try_inject(p, 0)
    system.run_until_idle(max_cycles=100_000)
    assert len(got) == count
