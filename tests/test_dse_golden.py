"""Exploration determinism goldens.

The engine's contract: an exploration's payload is bit-identical across
``jobs`` counts and cache states (cold or warm), and the ``figure2``
preset reproduces the throughput-effectiveness ordering the original
``examples/design_space_exploration.py`` printed at full windows.

The cross-jobs/cross-cache matrix runs the real figure2 space at small
windows to stay fast; the full-window ordering test runs the actual
preset (the expensive honest check) on a private cache that the power
preset's full sweep then reads back."""

import dataclasses
import json

import pytest

from repro.dse import (CSV_COLUMNS, NODE_CSV_COLUMNS, ExplorationResult,
                       explore, figure2, power, preset)
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

#: ``smoke``'s (IPC, mm², W) frontier: the 2-D frontier's three members
#: plus four points the W objective keeps non-dominated.
FRONTIER3D_SMOKE = [
    "cp-dor-w16-v2-b8", "cp-dor-w16-v2-b4", "CP-CR-4VC",
    "tb-dor-w16-v2-b4", "tb-dor-w16-v1-b8", "cp-dor-w16-v1-b4",
    "tb-dor-w16-v1-b4",
]


def tiny_figure2():
    """The figure2 space and seed policy at test-sized windows/mix."""
    spec = figure2()
    return dataclasses.replace(
        spec, mix=("RD", "HSP", "BLK"), warmup=60, measure=120)


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
        assert payload["schema"] == 4
        assert (payload["warmup"], payload["measure"]) == (60, 120)
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

    @pytest.mark.parametrize("schema", (1, 2))
    def test_ladder_artifacts_rejected(self, tmp_path, schema):
        # Schemas 1 and 2 came from the fidelity ladder: their rows that
        # missed the confirm stage hold halving-round or missing IPC, so
        # loading them as full-mix measurements would misstate them.
        result = explore(tiny_figure2(), jobs=1,
                         cache=str(tmp_path / "cache"))
        legacy = result.to_json()
        legacy["schema"] = schema
        with pytest.raises(ValueError, match=f"schema {schema} "):
            ExplorationResult.from_json(legacy)

    def test_windowless_artifact_rejected(self, tmp_path):
        # Schema 3 did not record the simulation windows, so its numbers
        # cannot be told from a full-window run's.
        result = explore(tiny_figure2(), jobs=1,
                         cache=str(tmp_path / "cache"))
        legacy = result.to_json()
        legacy["schema"] = 3
        del legacy["warmup"], legacy["measure"]
        with pytest.raises(ValueError, match="schema 3 "):
            ExplorationResult.from_json(legacy)

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


@pytest.fixture(scope="module")
def figure2_cache(tmp_path_factory):
    """One private result cache for the full-window tests, so every run
    simulates ``figure2`` once and never reads a cache another checkout
    warmed."""
    return str(tmp_path_factory.mktemp("figure2-cache"))


class TestFigure2FullOrdering:
    def test_reproduces_head_example_ordering(self, figure2_cache):
        # Full 400/1000-cycle windows over the 9-benchmark mix — the
        # honest acceptance check (about 4 s cold, serial).
        result = explore(figure2(), jobs=1, cache=figure2_cache)
        assert (result.warmup, result.measure) == (400, 1000)
        assert result.ranking == FIGURE2_ORDERING
        assert result.rejected == []
        assert sorted(result.ranking) \
            == sorted(c.name for c in result.candidates)
        for c in result.candidates:
            assert c.hm_ipc is not None and c.hm_ipc > 0
            assert c.throughput_effectiveness \
                == pytest.approx(c.hm_ipc / c.chip_area_mm2)
        # Figure 2's frontier: the big-IPC point and the two
        # small-area/high-IPC points survive; plain meshes are dominated
        assert "Throughput-Effective" in result.frontier
        assert "TB-DOR" not in result.frontier


class TestPowerPresetFullSweep:
    def test_power_preset_projects_onto_figure2(self, figure2_cache):
        # Acceptance: `--preset power` shares figure2's tasks exactly
        # (free on the cache the figure2 test warmed) and its (IPC, mm²)
        # projection is bit-identical at the 65 nm base node.
        base = explore(figure2(), jobs=1, cache=figure2_cache)
        collector = ReportCollector()
        result = explore(power(), jobs=1, cache=figure2_cache,
                         progress=collector)
        assert collector.executed == 0
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


class TestSmokeFrontiers:
    def test_smoke_reports_its_spaces_frontiers(self):
        """``smoke`` runs all 9 legal candidates on its 3-benchmark mix,
        so its frontiers are the frontiers of its space: the 2-D one
        includes ``cp-dor-w16-v2-b8``, a high-IPC point that a cut on
        IPC/mm² alone would drop."""
        collector = ReportCollector()
        result = explore(preset("smoke"), progress=collector)
        assert collector.total == result.host["tasks"] == 27
        assert len(result.candidates) == 9 and len(result.rejected) == 8
        assert result.frontier == ["cp-dor-w16-v2-b8", "cp-dor-w16-v2-b4",
                                   "CP-CR-4VC"]
        assert result.frontier3d == FRONTIER3D_SMOKE
        for c in result.candidates:
            assert c.on_frontier == (c.name in result.frontier)
            assert c.on_frontier3d == (c.name in result.frontier3d)
            assert c.hm_ipc > 0 and c.noc_power_w > 0
