"""Exploration results: ranking, frontier bookkeeping, pinned artifacts.

An :class:`ExplorationResult` records every point of one exploration —
constraint-rejected points with their named rules, every legal candidate
with its closed-loop measurement and power pricing, the exact Pareto
frontiers over (harmonic-mean IPC, NoC mm²) and (IPC, mm², W), and the
throughput-effectiveness ranking.  ``to_json`` round-trips exactly
(``from_json`` gives field-for-field equality) and deliberately excludes
host-side timing, so results are bit-identical across ``--jobs`` counts
and cache states (golden-tested).

Artifacts (``write_artifacts``) have pinned schemas:

* ``exploration.json`` — the full result, ``{"schema": 4, ...}``;
* ``candidates.csv`` / ``frontier.csv`` — fixed column order
  (:data:`CSV_COLUMNS`) for spreadsheet/pandas consumption;
* ``tech_nodes.csv`` — one row per (candidate, technology node) with the
  node-scaled power breakdown and per-node IPC/W rank
  (:data:`NODE_CSV_COLUMNS`);
* ``host.json`` — wall-clock and the task tally (the only artifact that
  varies run to run).

Schema history: 1 carried the two-objective (IPC, mm²) payload; 2 added
the power objective; 3 drops the fidelity ladder (``round_mix``, each
candidate's ``stages`` and ``fidelity``), because every candidate is now
measured on the full mix; 4 records the ``warmup``/``measure`` windows
every candidate ran at.  ``from_json`` reads schema 4 only: the
non-confirmed rows of a schema-1 or schema-2 artifact hold halving-round
or missing IPC, which would read as full-mix measurements, and a schema-3
artifact cannot say what windows produced its numbers.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Bumped whenever the result payload layout changes, so downstream
#: consumers (and the BENCH trajectory) never misread an old artifact.
#: 1 = two objectives (IPC, mm²); 2 adds the power objective; 3 drops
#: the fidelity ladder; 4 records the simulation windows.
SCHEMA_VERSION = 4

#: Pinned column order of ``candidates.csv`` and ``frontier.csv``.
CSV_COLUMNS = (
    "rank", "name", "hm_ipc", "throughput_effectiveness",
    "chip_area_mm2", "noc_area_mm2", "on_frontier", "dominated_by",
    "noc_power_w", "ipc_per_watt", "on_frontier3d", "dominated_by_3d",
    "placement", "routing", "half_routers", "channel_width",
    "vcs_per_class", "vc_buffer_depth", "double_network", "slice_mode",
    "mc_inject_ports", "mc_eject_ports", "mesh",
)

#: Pinned column order of ``tech_nodes.csv`` (one row per candidate ×
#: technology node; ``rank_at_node`` orders by IPC/W within the node).
NODE_CSV_COLUMNS = (
    "name", "tech_nm", "frequency_ghz", "dynamic_w", "leakage_w",
    "total_w", "energy_per_flit_pj", "ipc_per_watt", "rank_at_node",
)


@dataclass
class CandidateResult:
    """One legal design point, measured closed-loop on the full mix."""

    name: str
    design: dict                 # NetworkDesign as a plain dict
    mesh: List[int]              # [cols, rows]
    num_mcs: int
    noc_area_mm2: float
    chip_area_mm2: float
    hm_ipc: float                # harmonic mean over the mix
    throughput_effectiveness: float     # hm_ipc / chip_area_mm2
    #: NoC power at the base node (W) and hm_ipc / watts.
    noc_power_w: float
    ipc_per_watt: Optional[float]
    #: ``PowerReport.to_json()`` dicts, one per swept technology node in
    #: the exploration's ``tech_nodes`` order.
    power_by_node: List[dict]
    on_frontier: bool = False
    dominated_by: Optional[str] = None
    #: (IPC, mm², W) frontier bookkeeping, same contract as the 2-D pair.
    on_frontier3d: bool = False
    dominated_by_3d: Optional[str] = None

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "CandidateResult":
        return cls(**data)


@dataclass
class ExplorationResult:
    """Everything one exploration produced (see module docstring)."""

    preset: str
    seed: int
    seed_policy: str
    mix: List[str]
    #: Closed-loop warmup and measurement cycles of every candidate run.
    warmup: int
    measure: int
    candidates: List[CandidateResult]
    #: ``{"name": ..., "violations": [{"rule": ..., "reason": ...}]}`` per
    #: constraint-rejected point, in enumeration order.
    rejected: List[dict]
    #: Candidate names, best throughput-effectiveness first, then name
    #: (deterministic ties).
    ranking: List[str]
    #: Pareto-frontier member names (IPC desc, area asc, name).
    frontier: List[str]
    #: Technology nodes each candidate's power was priced at; the first
    #: entry is the base node used for the W objective.
    tech_nodes: List[int]
    #: (IPC, mm², W) frontier member names at the base node.  A superset
    #: of the 2-D frontier's names: adding an objective never removes a
    #: non-dominated point.
    frontier3d: List[str]
    #: Host-side stats (wall seconds, task tally).  Deliberately NOT
    #: serialized by :meth:`to_json` — results must be bit-identical
    #: across hosts, jobs counts and cache states.
    host: Optional[dict] = field(default=None, compare=False)

    def __getitem__(self, name: str) -> CandidateResult:
        for candidate in self.candidates:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no candidate {name!r} in this exploration")

    def to_json(self) -> dict:
        """JSON-compatible dict; exact float round trip; no host stats."""
        return {
            "schema": SCHEMA_VERSION,
            "preset": self.preset,
            "seed": self.seed,
            "seed_policy": self.seed_policy,
            "mix": list(self.mix),
            "warmup": self.warmup,
            "measure": self.measure,
            "candidates": [c.to_json() for c in self.candidates],
            "rejected": self.rejected,
            "ranking": list(self.ranking),
            "frontier": list(self.frontier),
            "tech_nodes": list(self.tech_nodes),
            "frontier3d": list(self.frontier3d),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExplorationResult":
        """Inverse of :meth:`to_json` with field-for-field equality.

        Reads schema 4 only (see the module docstring)."""
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"exploration artifact schema "
                             f"{data.get('schema')!r} is not "
                             f"{SCHEMA_VERSION}; re-run the exploration")
        return cls(
            preset=data["preset"], seed=data["seed"],
            seed_policy=data["seed_policy"], mix=list(data["mix"]),
            warmup=data["warmup"], measure=data["measure"],
            candidates=[CandidateResult.from_json(c)
                        for c in data["candidates"]],
            rejected=list(data["rejected"]),
            ranking=list(data["ranking"]),
            frontier=list(data["frontier"]),
            tech_nodes=list(data["tech_nodes"]),
            frontier3d=list(data["frontier3d"]),
        )

    # -- artifacts -----------------------------------------------------------

    def _csv_row(self, rank: int,
                 candidate: CandidateResult) -> Dict[str, object]:
        design = candidate.design
        return {
            "rank": rank,
            "name": candidate.name,
            "hm_ipc": repr(candidate.hm_ipc),
            "throughput_effectiveness":
                repr(candidate.throughput_effectiveness),
            "chip_area_mm2": repr(candidate.chip_area_mm2),
            "noc_area_mm2": repr(candidate.noc_area_mm2),
            "on_frontier": int(candidate.on_frontier),
            "dominated_by": candidate.dominated_by or "",
            "noc_power_w": repr(candidate.noc_power_w),
            "ipc_per_watt": ("" if candidate.ipc_per_watt is None
                             else repr(candidate.ipc_per_watt)),
            "on_frontier3d": int(candidate.on_frontier3d),
            "dominated_by_3d": candidate.dominated_by_3d or "",
            "placement": design["placement"],
            "routing": design["routing"],
            "half_routers": int(design["half_routers"]),
            "channel_width": design["channel_width"],
            "vcs_per_class": design["vcs_per_class"],
            "vc_buffer_depth": design["vc_buffer_depth"],
            "double_network": int(design["double_network"]),
            "slice_mode": design["slice_mode"],
            "mc_inject_ports": design["mc_inject_ports"],
            "mc_eject_ports": design["mc_eject_ports"],
            "mesh": f"{candidate.mesh[0]}x{candidate.mesh[1]}",
        }

    def _write_csv(self, path: Path, names: List[str]) -> None:
        """One row per candidate in ``names``, in ranking order."""
        wanted = set(names)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for rank, name in enumerate(self.ranking, start=1):
                if name in wanted:
                    writer.writerow(self._csv_row(rank, self[name]))

    def _node_rows(self) -> List[Dict[str, object]]:
        """``tech_nodes.csv`` rows: every candidate × swept node, nodes
        in sweep order, candidates ranked by IPC/W within each node (the
        per-node ordering the technology sweep is meant to exhibit)."""
        rows: List[Dict[str, object]] = []
        for index, node in enumerate(self.tech_nodes):
            reports = [(c, c.power_by_node[index]) for c in self.candidates]
            reports.sort(key=lambda pair: (
                -(pair[1].get("ipc_per_watt") or 0.0), pair[0].name))
            for rank, (candidate, report) in enumerate(reports, start=1):
                ipw = report.get("ipc_per_watt")
                rows.append({
                    "name": candidate.name,
                    "tech_nm": node,
                    "frequency_ghz": repr(report["frequency_ghz"]),
                    "dynamic_w": repr(report["dynamic_w"]),
                    "leakage_w": repr(report["leakage_w"]),
                    "total_w": repr(report["total_w"]),
                    "energy_per_flit_pj":
                        repr(report["energy_per_flit_pj"]),
                    "ipc_per_watt": "" if ipw is None else repr(ipw),
                    "rank_at_node": rank,
                })
        return rows

    def write_artifacts(self, out_dir: Union[str, Path]
                        ) -> Dict[str, Path]:
        """Write ``exploration.json``/``candidates.csv``/``frontier.csv``/
        ``tech_nodes.csv`` (plus ``host.json`` when host stats exist)
        under ``out_dir``; returns ``{artifact name: path}``."""
        root = Path(out_dir)
        root.mkdir(parents=True, exist_ok=True)
        written: Dict[str, Path] = {}

        path = root / "exploration.json"
        path.write_text(json.dumps(self.to_json(), indent=1),
                        encoding="utf-8")
        written["exploration.json"] = path

        path = root / "candidates.csv"
        self._write_csv(path, self.ranking)
        written["candidates.csv"] = path

        path = root / "frontier.csv"
        self._write_csv(path, self.frontier)
        written["frontier.csv"] = path

        path = root / "tech_nodes.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=NODE_CSV_COLUMNS)
            writer.writeheader()
            for row in self._node_rows():
                writer.writerow(row)
        written["tech_nodes.csv"] = path

        if self.host is not None:
            path = root / "host.json"
            path.write_text(json.dumps({"schema": SCHEMA_VERSION,
                                        **self.host}, indent=1),
                            encoding="utf-8")
            written["host.json"] = path
        return written
