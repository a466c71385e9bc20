"""Power-model calibration goldens and report contracts.

The same discipline as ``tests/test_area.py``: every anchor constant is
pinned *exactly* (they are calibration inputs, not predictions); every
other configuration is a prediction of the documented functional form,
checked against the form within tolerance.  On top of that,
:class:`PowerReport` has contracts the DSE leans on:
JSON round-trip equality, node-independence of the underlying activity,
and monotonically improving IPC/W across the technology sweep.
"""

import pytest

from repro.area.chip import design_noc_area
from repro.area.orion import crossbar_units
from repro.core.builder import BASELINE, THROUGHPUT_EFFECTIVE
from repro.power import (DEFAULT_NODES, E_ALLOCATOR_ANCHOR_PJ,
                         E_BUFFER_READ_ANCHOR_PJ, E_BUFFER_WRITE_ANCHOR_PJ,
                         E_CROSSBAR_ANCHOR_PJ, E_LINK_ANCHOR_PJ, F65_GHZ,
                         LEAKAGE_MW_PER_MM2, TECH_NODES, ActivityCounts,
                         PowerReport, allocator_energy_pj, buffer_energy_pj,
                         crossbar_energy_pj, design_power, leakage_w,
                         link_energy_pj, node_sweep, power_report,
                         router_energy, tech_node)
from repro.system.accelerator import build_chip
from repro.workloads.profiles import profile

#: A deterministic synthetic window (no simulation needed): a saturated
#: 6x6 mesh over 1000 interconnect cycles.
ACTIVITY = ActivityCounts(cycles=1000, crossbar_traversals=20000,
                          buffer_reads=20000, buffer_writes=20400,
                          link_flit_hops=16000, flits_ejected=4000)


class TestAnchorsExact:
    """The calibration constants are inputs — pinned bit-exactly."""

    def test_crossbar_anchor(self):
        assert crossbar_energy_pj(16) == E_CROSSBAR_ANCHOR_PJ == 1.2

    def test_buffer_anchors(self):
        assert buffer_energy_pj(16, 2, 8, write=True) \
            == E_BUFFER_WRITE_ANCHOR_PJ == 0.62
        assert buffer_energy_pj(16, 2, 8, write=False) \
            == E_BUFFER_READ_ANCHOR_PJ == 0.48

    def test_allocator_anchor(self):
        assert allocator_energy_pj(2) == E_ALLOCATOR_ANCHOR_PJ == 0.024

    def test_link_anchor(self):
        assert link_energy_pj(16) == E_LINK_ANCHOR_PJ == 1.75

    def test_leakage_anchor(self):
        assert LEAKAGE_MW_PER_MM2 == 2.5
        assert leakage_w(1.0) == pytest.approx(2.5e-3)

    def test_65nm_row_is_identity(self):
        node = tech_node(65)
        assert node.vdd == 1.1
        assert node.freq_scale == node.cap_scale == 1.0
        assert node.leak_scale == node.area_scale == 1.0
        assert node.dynamic_scale == 1.0
        assert node.leakage_area_scale == 1.0
        assert node.frequency_ghz == F65_GHZ == 0.602


class TestPredictionsFollowTheForms:
    """Non-anchor configurations are predictions of the documented
    functional forms — checked against the form, with tolerance."""

    def test_crossbar_quadratic_in_width(self):
        assert crossbar_energy_pj(32) \
            == pytest.approx(4 * E_CROSSBAR_ANCHOR_PJ)
        assert crossbar_energy_pj(8) \
            == pytest.approx(E_CROSSBAR_ANCHOR_PJ / 4)

    def test_crossbar_prices_datapath_units(self):
        # Half routers and multi-port MC routers reuse the area model's
        # cell count, so their energies sit in exact unit ratios.
        full = crossbar_energy_pj(16)
        assert crossbar_energy_pj(16, half=True) \
            == pytest.approx(full * crossbar_units(True, 1, 1) / 25)
        assert crossbar_energy_pj(16, inject_ports=2) \
            == pytest.approx(full * crossbar_units(False, 2, 1) / 25)

    def test_buffer_linear_in_vcs_depth_width(self):
        base = buffer_energy_pj(16, 2, 8, write=True)
        assert buffer_energy_pj(16, 4, 8, write=True) \
            == pytest.approx(2 * base)
        assert buffer_energy_pj(16, 2, 4, write=True) \
            == pytest.approx(base / 2)
        assert buffer_energy_pj(32, 2, 8, write=True) \
            == pytest.approx(2 * base)

    def test_allocator_quadratic_in_vcs(self):
        assert allocator_energy_pj(4) \
            == pytest.approx(4 * E_ALLOCATOR_ANCHOR_PJ)

    def test_link_linear_in_width(self):
        assert link_energy_pj(32) == pytest.approx(2 * E_LINK_ANCHOR_PJ)

    def test_router_energy_traversal_sums_components(self):
        r = router_energy(16, 2)
        assert r.traversal_pj == pytest.approx(
            r.crossbar_pj + r.buffer_write_pj + r.buffer_read_pj
            + r.allocator_pj)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            crossbar_energy_pj(0)
        with pytest.raises(ValueError):
            buffer_energy_pj(16, 0)
        with pytest.raises(ValueError):
            allocator_energy_pj(0)
        with pytest.raises(ValueError):
            link_energy_pj(-1)
        with pytest.raises(ValueError):
            leakage_w(-0.1)

    def test_tech_scaling_forms(self):
        node = tech_node(45)
        assert node.dynamic_scale \
            == pytest.approx((45 / 65) * (1.0 / 1.1) ** 2)
        assert node.leakage_area_scale \
            == pytest.approx((45 / 65) ** 2 * 1.6)
        assert tech_node(22).frequency_ghz \
            == pytest.approx(F65_GHZ * 1.953125)
        # Dynamic energy per event shrinks monotonically down the table
        # while frequency rises.
        dyn = [TECH_NODES[nm].dynamic_scale for nm in DEFAULT_NODES]
        freq = [TECH_NODES[nm].frequency_ghz for nm in DEFAULT_NODES]
        assert dyn == sorted(dyn, reverse=True)
        assert freq == sorted(freq)

    def test_unknown_node_rejected(self):
        with pytest.raises(KeyError, match="unknown technology node"):
            tech_node(28)


class TestDesignPower:
    def test_leakage_matches_area_model_exactly(self):
        report = design_power(THROUGHPUT_EFFECTIVE, ACTIVITY)
        area = design_noc_area(THROUGHPUT_EFFECTIVE, compute_area=0.0)
        assert report.leak_routers_w \
            == pytest.approx(leakage_w(area.router_sum))
        assert report.leak_links_w \
            == pytest.approx(leakage_w(area.link_sum))

    def test_energy_per_flit_back_converts_total(self):
        report = design_power(BASELINE, ACTIVITY)
        hz = report.frequency_ghz * 1e9
        window_pj = report.total_w / hz * ACTIVITY.cycles * 1e12
        assert report.energy_per_flit_pj \
            == pytest.approx(window_pj / ACTIVITY.flits_ejected)

    def test_zero_cycles_is_all_leakage(self):
        idle = ActivityCounts(cycles=0, crossbar_traversals=0,
                              buffer_reads=0, buffer_writes=0,
                              link_flit_hops=0)
        report = design_power(BASELINE, idle)
        assert report.dynamic_w == 0.0
        assert report.total_w == pytest.approx(report.leakage_w)

    def test_node_sweep_improves_ipc_per_watt_monotonically(self):
        reports = node_sweep(THROUGHPUT_EFFECTIVE, ACTIVITY,
                             DEFAULT_NODES, ipc=150.0)
        assert list(reports) == list(DEFAULT_NODES)
        ipw = [reports[nm].ipc_per_watt for nm in DEFAULT_NODES]
        assert all(v is not None for v in ipw)
        assert ipw == sorted(ipw)
        # the activity being priced is node-independent
        assert len({reports[nm].cycles for nm in DEFAULT_NODES}) == 1

    def test_json_round_trip_exact(self):
        report = design_power(THROUGHPUT_EFFECTIVE, ACTIVITY, node=32,
                              ipc=123.4)
        clone = PowerReport.from_json(report.to_json())
        assert clone == report
        assert clone.to_json() == report.to_json()

    def test_report_prices_a_real_simulation(self):
        result = build_chip(profile("RD"), design=THROUGHPUT_EFFECTIVE,
                            seed=11).run(warmup=100, measure=200)
        report = power_report(THROUGHPUT_EFFECTIVE, result)
        assert report.cycles == result.icnt_cycles
        assert report.dynamic_w > 0
        assert report.ipc_per_watt \
            == pytest.approx(result.ipc / report.total_w)
        # ... and equals pricing the extracted counts directly
        direct = design_power(THROUGHPUT_EFFECTIVE,
                              ActivityCounts.from_result(result),
                              ipc=result.ipc)
        assert direct == report

    def test_activity_falls_back_to_whole_run_cycles(self):
        class Point:          # LoadLatencyPoint-shaped (no icnt_cycles)
            cycles = 300
            crossbar_traversals = 10
            buffer_reads = 10
            buffer_writes = 12
            link_flit_hops = 8
            flits_ejected = 2

        counts = ActivityCounts.from_result(Point())
        assert counts.cycles == 300
        assert counts.flits_ejected == 2
