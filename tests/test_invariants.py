"""Runtime invariant checks of router micro-state under saturating load.

These tests drive the network hard and periodically audit every router:
credit counters never go negative or exceed the buffer depth, buffers never
exceed their depth, VC ownership is consistent with downstream routed
state, and body flits never appear at the head of an unrouted VC.
"""

import random

import pytest

from repro.core.builder import (BASELINE, CP_CR, THROUGHPUT_EFFECTIVE,
                                build, open_loop_variant)
from repro.noc.packet import read_reply, read_request
from repro.noc.topology import is_terminal_port


def audit(network) -> None:
    depth = network.params.vc_buffer_depth
    for coord, router in network.routers.items():
        for port_id, vcs in router.in_ports.items():
            for vc in vcs:
                assert len(vc.buffer) <= depth, (coord, port_id)
                if vc.buffer and not vc.buffer[0].is_head:
                    assert vc.out_port is not None, (coord, port_id)
        for port_id, out in router.out_ports.items():
            terminal = out.sink is not None
            for vc_idx, credits in enumerate(out.credits):
                if terminal:
                    assert credits >= 0
                else:
                    assert 0 <= credits <= depth, (coord, port_id, vc_idx)


def saturate(design, cycles=800, audit_every=40, seed=3):
    system = build(open_loop_variant(design), seed=seed)
    rng = random.Random(seed)
    node = system.mesh.index
    for coord in list(system.mesh.coords()):
        system.set_ejection_handler(node(coord), lambda p, c: None)
    for _ in range(cycles):
        # Heavy request load plus replies from every MC each cycle.
        for core in rng.sample(system.compute_nodes, 8):
            system.try_inject(
                read_request(node(core), node(rng.choice(system.mc_nodes))),
                system.cycle)
        for mc in system.mc_nodes:
            system.try_inject(
                read_reply(node(mc), node(rng.choice(system.compute_nodes))),
                system.cycle)
        system.step()
        if system.cycle % audit_every == 0:
            for net in system.networks:
                audit(net)
    return system


@pytest.mark.parametrize("design",
                         [BASELINE, CP_CR, THROUGHPUT_EFFECTIVE],
                         ids=lambda d: d.name)
def test_invariants_hold_under_saturation(design):
    system = saturate(design)
    # And the network still drains afterwards (no leaked credits/locks).
    system.run_until_idle(max_cycles=200_000)
    for net in system.networks:
        audit(net)
        for router in net.routers.values():
            assert router.occupancy == 0
            for out in router.out_ports.values():
                assert all(owner is None for owner in out.owner)


def test_credits_restored_after_drain():
    system = saturate(BASELINE, cycles=300)
    system.run_until_idle(max_cycles=200_000)
    net = system.networks[0]
    depth = net.params.vc_buffer_depth
    for router in net.routers.values():
        for port_id, out in router.out_ports.items():
            if out.sink is None:
                assert all(c == depth for c in out.credits), port_id
