"""Tests for open-loop measurement details (LoadLatencyPoint, sweep)."""

import pytest

from repro.core import BASELINE, build, open_loop_variant
from repro.experiments import load_latency_curves
from repro.noc.openloop import OpenLoopRunner
from repro.noc.traffic import UniformManyToFew


def fresh_system():
    return build(open_loop_variant(BASELINE))


class TestMeasurement:
    def test_warmup_packets_excluded(self):
        """Only packets created during the measurement window count."""
        system = fresh_system()
        runner = OpenLoopRunner(system, system.compute_nodes,
                                system.mc_nodes,
                                UniformManyToFew(system.mc_nodes), 0.02)
        point = runner.run(warmup=300, measure=400)
        # Request+reply pairs: measured count is bounded by what 400 cycles
        # of injection can create (28 nodes x rate x cycles x 2 packets).
        upper = 28 * 0.02 * 400 * 2 * 1.3
        assert point.packets_measured <= upper

    def test_request_latency_below_reply_latency(self):
        """Replies are 4-flit packets with serialization latency."""
        system = fresh_system()
        runner = OpenLoopRunner(system, system.compute_nodes,
                                system.mc_nodes,
                                UniformManyToFew(system.mc_nodes), 0.015)
        point = runner.run(warmup=300, measure=700)
        assert point.mean_reply_latency > point.mean_request_latency

    def test_zero_rate_produces_no_packets(self):
        system = fresh_system()
        runner = OpenLoopRunner(system, system.compute_nodes,
                                system.mc_nodes,
                                UniformManyToFew(system.mc_nodes), 0.0)
        point = runner.run(warmup=50, measure=100)
        assert point.packets_measured == 0
        assert point.mean_latency == float("inf")
        assert point.saturated   # degenerate: nothing measured

    def test_offered_rate_recorded(self):
        system = fresh_system()
        runner = OpenLoopRunner(system, system.compute_nodes,
                                system.mc_nodes,
                                UniformManyToFew(system.mc_nodes), 0.03)
        assert runner.run(warmup=50, measure=100).offered_rate == 0.03


class TestSweep:
    def test_load_latency_curves_build_fresh_networks(self):
        (curve,) = load_latency_curves([BASELINE], [0.005, 0.02],
                                       UniformManyToFew,
                                       warmup=150, measure=300)
        points = curve.points
        assert len(points) == 2
        assert points[0].offered_rate == 0.005
        assert points[1].mean_latency >= points[0].mean_latency * 0.8
