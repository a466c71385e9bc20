"""Closed-loop tests of the paper's traffic characterization claims
(Section III-D): many-to-few-to-many with byte-asymmetric packets."""

import pytest

from repro.core.builder import BASELINE, build
from repro.noc.packet import TrafficClass
from repro.system.accelerator import build_chip, perfect_chip
from repro.workloads.profiles import profile


@pytest.fixture(scope="module")
def hh_run():
    chip = build_chip(profile("SCP"), design=BASELINE)
    result = chip.run(warmup=400, measure=800)
    return chip, result


class TestManyToFewAsymmetry:
    def test_mc_injects_more_bytes_than_cores(self, hh_run):
        """Section III-D: average MC injection (bytes/cycle) is several
        times a compute core's (the paper measures 6.9x)."""
        chip, _ = hh_run
        stats = chip.network.stats
        mc_bytes = sum(stats.node_injected_flits[mc]
                       for mc in chip.mc_ids) / len(chip.mc_coords)
        core_bytes = sum(stats.node_injected_flits[c]
                         for c in chip.compute_ids) / \
            len(chip.compute_coords)
        assert mc_bytes / core_bytes > 3.0

    def test_request_packets_small_replies_large(self, hh_run):
        chip, _ = hh_run
        stats = chip.network.stats
        req = stats.per_class[TrafficClass.REQUEST]
        rep = stats.per_class[TrafficClass.REPLY]
        assert req.packets > 0 and rep.packets > 0
        assert req.flits / req.packets < rep.flits / rep.packets

    def test_reply_count_tracks_read_count(self, hh_run):
        chip, _ = hh_run
        reads = sum(mc.reads for mc in chip.mcs)
        replies = sum(mc.replies_sent for mc in chip.mcs)
        # Steady state: replies lag reads only by the in-flight window.
        assert replies <= reads
        assert replies > 0.5 * reads

    def test_hotspot_free_under_interleaving(self, hh_run):
        """256 B low-order interleaving spreads requests over the MCs."""
        chip, _ = hh_run
        counts = [mc.requests_received for mc in chip.mcs]
        assert min(counts) > 0
        assert max(counts) / max(1, min(counts)) < 2.0


class TestPlacementCongestion:
    def test_staggering_raises_mc_injection_throughput(self):
        """Figure 16's mechanism: with MCs side by side on the top/bottom
        rows their reply traffic shares the same row links, capping each
        MC's achieved injection rate; staggering (CP) removes the sharing.
        Both placements saturate their hottest link, but CP converts that
        utilization into more delivered reply flits per MC."""
        from repro.core.builder import CP_DOR
        rates = {}
        for design in (BASELINE, CP_DOR):
            chip = build_chip(profile("SCP"), design=design)
            result = chip.run(warmup=300, measure=600)
            rates[design.name] = result.mc_injection_rate_flits
        assert rates["CP-DOR"] > rates["TB-DOR"] * 1.1

    def test_hot_links_exist_under_saturation(self):
        chip = build_chip(profile("SCP"), design=BASELINE)
        chip.run(warmup=300, measure=600)
        assert chip.network.networks[0].peak_channel_utilization() > 0.5
