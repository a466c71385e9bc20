"""Exploration determinism goldens.

The engine's contract: an exploration's payload is bit-identical across
``jobs`` counts and cache states (cold or warm), and the ``figure2``
preset reproduces the throughput-effectiveness ordering the original
``examples/design_space_exploration.py`` printed at full windows.

The cross-jobs/cross-cache matrix runs the real figure2 space at small
windows to stay fast; the full-window ordering test runs the actual
preset (the expensive honest check — use a warm cache to make re-runs
free)."""

import dataclasses
import json

import pytest

from repro.dse import (CSV_COLUMNS, NODE_CSV_COLUMNS, ExplorationResult,
                       FidelityLadder, explore, figure2, power, preset)
from repro.parallel import ReportCollector

#: The head example's Figure 2 ordering, best throughput-effectiveness
#: first — the acceptance golden for `repro explore --preset figure2`.
FIGURE2_ORDERING = [
    "Throughput-Effective",
    "Double-CP-CR",
    "CP-CR-4VC",
    "CP-DOR",
    "2x-TB-DOR",
    "TB-DOR-1cyc",
    "TB-DOR",
]


def tiny_figure2():
    """The figure2 space and seed policy at test-sized windows/mix."""
    spec = figure2()
    return dataclasses.replace(
        spec, mix=("RD", "HSP", "BLK"),
        ladder=FidelityLadder(screen=False, halving_rounds=0,
                              confirm_warmup=60, confirm_measure=120,
                              min_survivors=7))


def tiny_power():
    """The power preset at the same test-sized windows/mix: its
    simulation tasks must be byte-identical to ``tiny_figure2``'s."""
    return dataclasses.replace(tiny_figure2(), name="power",
                               tech_nodes=power().tech_nodes)


class TestBitIdenticalAcrossJobsAndCache:
    def test_jobs_and_cache_matrix(self, tmp_path):
        spec = tiny_figure2()
        runs = {}
        stats = {}
        # cache A: serial cold, then parallel warm;
        # cache B: parallel cold, then serial warm.
        for key, jobs, cache in (("serial-cold", 1, tmp_path / "a"),
                                 ("parallel-warm", 4, tmp_path / "a"),
                                 ("parallel-cold", 4, tmp_path / "b"),
                                 ("serial-warm", 1, tmp_path / "b")):
            collector = ReportCollector()
            result = explore(spec, jobs=jobs, cache=str(cache),
                             progress=collector)
            runs[key] = result.to_json()
            stats[key] = collector
        # the cache states are what the labels claim
        assert stats["serial-cold"].cached == 0
        assert stats["parallel-cold"].cached == 0
        assert stats["parallel-warm"].executed == 0
        assert stats["serial-warm"].executed == 0
        # ... and every payload is bit-identical
        golden = runs["serial-cold"]
        for key, payload in runs.items():
            assert payload == golden, f"{key} diverged from serial-cold"

    def test_host_stats_excluded_from_payload(self, tmp_path):
        result = explore(tiny_figure2(), jobs=1,
                         cache=str(tmp_path / "cache"))
        assert result.host is not None
        assert result.host["tasks"] > 0
        assert "host" not in result.to_json()

    def test_payload_round_trips_and_artifacts_pin_schema(self, tmp_path):
        result = explore(tiny_figure2(), jobs=1,
                         cache=str(tmp_path / "cache"))
        clone = ExplorationResult.from_json(result.to_json())
        assert clone.to_json() == result.to_json()
        assert clone == dataclasses.replace(result, host=None)

        written = result.write_artifacts(tmp_path / "out")
        assert sorted(written) == ["candidates.csv", "exploration.json",
                                   "frontier.csv", "host.json",
                                   "tech_nodes.csv"]
        payload = json.loads(written["exploration.json"].read_text())
        assert payload["schema"] == 2
        assert ExplorationResult.from_json(payload).to_json() \
            == result.to_json()
        header = written["candidates.csv"].read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        body = written["candidates.csv"].read_text().splitlines()[1:]
        assert len(body) == len(result.candidates)
        frontier_rows = written["frontier.csv"].read_text().splitlines()[1:]
        assert len(frontier_rows) == len(result.frontier)
        node_header = written["tech_nodes.csv"].read_text().splitlines()[0]
        assert node_header == ",".join(NODE_CSV_COLUMNS)

    def test_old_two_objective_artifacts_still_readable(self, tmp_path):
        # A schema-1 artifact (pre-power) must load with the power
        # fields defaulting to "not computed".
        result = explore(tiny_figure2(), jobs=1,
                         cache=str(tmp_path / "cache"))
        legacy = result.to_json()
        legacy["schema"] = 1
        for key in ("tech_nodes", "frontier3d"):
            del legacy[key]
        for candidate in legacy["candidates"]:
            for key in ("noc_power_w", "ipc_per_watt", "power_by_node",
                        "on_frontier3d", "dominated_by_3d"):
                del candidate[key]
        loaded = ExplorationResult.from_json(
            json.loads(json.dumps(legacy)))
        assert loaded.tech_nodes == [65]
        assert loaded.frontier3d == []
        assert loaded.ranking == result.ranking
        assert loaded.frontier == result.frontier
        for old, new in zip(loaded.candidates, result.candidates):
            assert old.noc_power_w is None
            assert old.power_by_node is None
            assert old.hm_ipc == new.hm_ipc
            assert old.on_frontier == new.on_frontier

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            ExplorationResult.from_json({"schema": 99})

    def test_power_projection_bit_identical_to_figure2(self, tmp_path):
        # The power preset runs byte-identical simulation tasks, so its
        # (IPC, mm²) numbers, 2-D frontier and ranking match figure2
        # exactly — and its tasks hit figure2's cache entries.
        cache = str(tmp_path / "cache")
        base = explore(tiny_figure2(), jobs=1, cache=cache)
        collector = ReportCollector()
        swept = explore(tiny_power(), jobs=1, cache=cache,
                        progress=collector)
        assert collector.executed == 0          # every task cache-shared
        assert swept.tech_nodes == [65, 45, 32, 22]
        assert swept.ranking == base.ranking
        assert swept.frontier == base.frontier
        assert set(swept.frontier) <= set(swept.frontier3d)
        for b, s in zip(base.candidates, swept.candidates):
            assert s.hm_ipc == b.hm_ipc         # bit-identical, not approx
            assert s.noc_area_mm2 == b.noc_area_mm2
            assert s.noc_power_w == b.noc_power_w   # 65 nm base matches
            assert len(s.power_by_node) == 4
            # Smaller nodes must improve IPC/W monotonically (frequency
            # rises while dynamic and leakage both shrink).
            ipws = [r["ipc_per_watt"] for r in s.power_by_node]
            assert ipws == sorted(ipws)


class TestFigure2FullOrdering:
    def test_reproduces_head_example_ordering(self):
        # Full 400/1000-cycle windows over the 9-benchmark mix — the
        # honest acceptance check (~90 s cold; free on a warm cache).
        result = explore(figure2(), jobs=1, cache=True)
        assert result.ranking == FIGURE2_ORDERING
        assert result.rejected == []
        for c in result.candidates:
            assert c.fidelity == "confirm"
            assert c.hm_ipc is not None and c.hm_ipc > 0
            assert c.throughput_effectiveness \
                == pytest.approx(c.hm_ipc / c.chip_area_mm2)
        # Figure 2's frontier: the big-IPC point and the two
        # small-area/high-IPC points survive; plain meshes are dominated
        assert "Throughput-Effective" in result.frontier
        assert "TB-DOR" not in result.frontier


class TestPowerPresetFullSweep:
    def test_power_preset_projects_onto_figure2(self, tmp_path):
        # Acceptance: `--preset power` shares figure2's tasks exactly
        # (free on the cache the figure2 test warmed) and its (IPC, mm²)
        # projection is bit-identical at the 65 nm base node.
        base = explore(figure2(), jobs=1, cache=True)
        result = explore(power(), jobs=1, cache=True)
        assert result.ranking == FIGURE2_ORDERING
        assert result.frontier == base.frontier
        assert result.tech_nodes == [65, 45, 32, 22]
        for b, s in zip(base.candidates, result.candidates):
            assert s.hm_ipc == b.hm_ipc
            assert s.noc_area_mm2 == b.noc_area_mm2
        # The throughput-effective checkerboard design leads the IPC/W
        # ordering at every swept node (the sweep only widens its lead:
        # leakage shrinks faster than the plain mesh's dynamic share).
        rows = result._node_rows()
        leaders = {row["tech_nm"]: row["name"] for row in rows
                   if row["rank_at_node"] == 1}
        assert len(leaders) >= 3
        assert set(leaders.values()) == {"Throughput-Effective"}
        # ... and it is on the 3-D frontier with the frontier a superset
        # of the 2-D one.
        assert "Throughput-Effective" in result.frontier3d
        assert set(result.frontier) <= set(result.frontier3d)


class TestFrontiersOverConfirmedCandidates:
    def test_smoke_frontiers_hold_only_confirmed_candidates(self):
        """A halving round's HM IPC is over a smaller mix and shorter
        windows than the confirm stage's, so only confirmed candidates
        are ranked against each other: ``smoke``'s round-1 drop-outs
        (cp-dor-w16-v2-b8, tb-dor-w16-v2-b8) keep their rows, on no
        frontier."""
        result = explore(preset("smoke"))
        fidelity = {c.name: c.fidelity for c in result.candidates}
        assert result.frontier == ["cp-dor-w16-v2-b4", "CP-CR-4VC"]
        assert result.frontier3d == ["cp-dor-w16-v2-b4", "CP-CR-4VC"]
        for name in result.frontier + result.frontier3d:
            assert fidelity[name] == "confirm", name
        dropped = [c for c in result.candidates if c.fidelity == "round1"]
        assert {c.name for c in dropped} == {"cp-dor-w16-v2-b8",
                                             "tb-dor-w16-v2-b8"}
        for c in dropped:
            assert c.hm_ipc is not None and c.noc_power_w is not None
            assert not (c.on_frontier or c.on_frontier3d)
