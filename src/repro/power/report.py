"""Chip-level power accounting: activity counts → :class:`PowerReport`.

The bridge between the simulator's always-on activity counters
(``NetworkStats.crossbar_traversals`` / ``buffer_reads`` /
``buffer_writes`` / ``link_flit_hops``, surfaced on every
``SimulationResult`` and ``LoadLatencyPoint``) and the per-event energy
model in :mod:`repro.power.orion`.  Because the counters ride along in
every result payload, a :class:`PowerReport` is computable from any
cached result *without rerunning the simulation* — and
technology scaling is purely analytic, so one simulation prices a design
at every node of the sweep.

Attribution follows the area model's structure split
(:func:`repro.area.chip.design_noc_area`): leakage is exact per
structure group (plain routers, half-routers, MC routers, links); for
dynamic energy the aggregate counters are distributed over router
instances uniformly (the counters are chip-wide sums, not per-router),
so each traversal is priced at the tile-count-weighted mean per-event
energy of the design's router mix.  Both choices are documented
contracts pinned by the power goldens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..area.chip import _slice_vcs, design_noc_area
from ..area.orion import link_area, mesh_link_count, router_area
from ..core.builder import NetworkDesign
from ..core.placement import HALF_ROUTER_PARITY
from ..noc.topology import Mesh
from .orion import (crossbar_energy_pj, buffer_energy_pj,
                    allocator_energy_pj, link_energy_pj, leakage_w)
from .tech import TechNode, tech_node


@dataclass(frozen=True)
class ActivityCounts:
    """Chip-wide activity over one measurement window (all slices)."""

    cycles: int
    crossbar_traversals: int
    buffer_reads: int
    buffer_writes: int
    link_flit_hops: int
    flits_ejected: int = 0

    @classmethod
    def from_result(cls, result) -> "ActivityCounts":
        """Extract counts from a ``SimulationResult`` (window cycles are
        ``icnt_cycles``) or a ``LoadLatencyPoint`` (whole-run
        ``cycles``)."""
        cycles = getattr(result, "icnt_cycles", None)
        if cycles is None:
            cycles = getattr(result, "cycles", 0)
        return cls(cycles=cycles,
                   crossbar_traversals=result.crossbar_traversals,
                   buffer_reads=result.buffer_reads,
                   buffer_writes=result.buffer_writes,
                   link_flit_hops=result.link_flit_hops,
                   flits_ejected=result.flits_ejected)


@dataclass(frozen=True)
class PowerReport:
    """Power of one NoC design point under one activity window.

    Dynamic components are watts at the node's interconnect clock;
    leakage is split by structure group.  All values are chip-wide.
    """

    name: str
    tech_nm: int
    frequency_ghz: float
    cycles: int
    # dynamic (W)
    crossbar_w: float
    buffer_w: float
    allocator_w: float
    link_w: float
    # leakage (W) by structure group
    leak_routers_w: float
    leak_links_w: float
    # derived
    energy_per_flit_pj: float        # total window energy / ejected flits
    ipc_per_watt: Optional[float] = None

    @property
    def dynamic_w(self) -> float:
        return (self.crossbar_w + self.buffer_w + self.allocator_w
                + self.link_w)

    @property
    def leakage_w(self) -> float:
        return self.leak_routers_w + self.leak_links_w

    @property
    def total_w(self) -> float:
        """Chip-total NoC power: dynamic + leakage."""
        return self.dynamic_w + self.leakage_w

    def as_dict(self) -> dict:
        from dataclasses import asdict
        data = asdict(self)
        data["dynamic_w"] = self.dynamic_w
        data["leakage_w"] = self.leakage_w
        data["total_w"] = self.total_w
        return data

    def to_json(self) -> dict:
        """JSON-compatible dict (derived totals included for tooling)."""
        return self.as_dict()

    @classmethod
    def from_json(cls, data: dict) -> "PowerReport":
        """Inverse of :meth:`to_json` (derived totals are recomputed)."""
        data = {k: v for k, v in data.items()
                if k not in ("dynamic_w", "leakage_w", "total_w")}
        return cls(**data)


def _router_mix(design: NetworkDesign, mesh: Mesh, num_mcs: int):
    """Tile counts per structure group, mirroring ``design_noc_area``:
    (plain full routers, plain half-routers, MC routers, mc_on_half)."""
    half_tiles = sum(1 for c in mesh.coords()
                     if design.half_routers
                     and c.parity() == HALF_ROUTER_PARITY)
    full_tiles = mesh.num_nodes - half_tiles
    mc_on_half = design.half_routers
    if mc_on_half:
        return full_tiles, half_tiles - num_mcs, num_mcs, True
    return full_tiles - num_mcs, half_tiles, num_mcs, False


def design_power(design: NetworkDesign, activity: ActivityCounts,
                 mesh: Optional[Mesh] = None, num_mcs: int = 8,
                 node: int = 65, ipc: Optional[float] = None,
                 multiport_both_slices: Optional[bool] = None
                 ) -> PowerReport:
    """Price one design point under ``activity`` at technology ``node``.

    The structure walk (slices, per-slice width and VCs, half-router
    parity, multi-port MC upgrades) deliberately mirrors
    :func:`repro.area.chip.design_noc_area` so power and area price the
    same layout.  ``ipc`` (if given) yields the throughput-per-watt
    figure of merit ``ipc / total_w``.
    """
    mesh = mesh if mesh is not None else Mesh(6, 6)
    tech: TechNode = tech_node(node)
    if multiport_both_slices is None:
        multiport_both_slices = (design.slice_mode == "balanced")

    slices = 2 if design.double_network else 1
    width = design.channel_width // slices
    vcs = _slice_vcs(design)
    depth = design.vc_buffer_depth

    plain_n, half_n, mc_n, mc_on_half = _router_mix(design, mesh, num_mcs)

    # Tile-count-weighted mean crossbar energy per traversal across the
    # design's router mix (the counters are chip-wide aggregates).  The
    # multi-port MC upgrade is averaged over slices exactly as the area
    # model counts it.
    multiport = (design.mc_inject_ports > 1 or design.mc_eject_ports > 1)
    xbar_sum = 0.0
    for slice_index in range(slices):
        upgraded = multiport and (multiport_both_slices or slice_index == 1
                                  or slices == 1)
        inj = design.mc_inject_ports if upgraded else 1
        ej = design.mc_eject_ports if upgraded else 1
        xbar_sum += (
            plain_n * crossbar_energy_pj(width, half=False)
            + half_n * crossbar_energy_pj(width, half=True)
            + mc_n * crossbar_energy_pj(width, half=mc_on_half,
                                        inject_ports=inj, eject_ports=ej))
    xbar_pj = xbar_sum / (slices * mesh.num_nodes)

    write_pj = buffer_energy_pj(width, vcs, depth, write=True)
    read_pj = buffer_energy_pj(width, vcs, depth, write=False)
    alloc_pj = allocator_energy_pj(vcs)
    hop_pj = link_energy_pj(width)

    # Window energy (pJ) at 65 nm, then node-scaled; P = E · f / cycles.
    dyn = tech.dynamic_scale
    hz = tech.frequency_ghz * 1e9
    cycles = activity.cycles

    def watts(events: int, pj_per_event: float) -> float:
        if not cycles:
            return 0.0
        return events * pj_per_event * dyn * 1e-12 * hz / cycles

    crossbar_w = watts(activity.crossbar_traversals, xbar_pj)
    buffer_w = (watts(activity.buffer_reads, read_pj)
                + watts(activity.buffer_writes, write_pj))
    allocator_w = watts(activity.crossbar_traversals, alloc_pj)
    link_w = watts(activity.link_flit_hops, hop_pj)

    # Leakage: exact per structure group from the area model's layout.
    area = design_noc_area(design, mesh, num_mcs, compute_area=0.0,
                           multiport_both_slices=multiport_both_slices)
    leak_scale = tech.leakage_area_scale
    leak_routers = leakage_w(area.router_sum) * leak_scale
    leak_links = leakage_w(area.link_sum) * leak_scale

    total_w = (crossbar_w + buffer_w + allocator_w + link_w
               + leak_routers + leak_links)
    window_energy_pj = total_w / hz * cycles * 1e12 if cycles else 0.0
    energy_per_flit = (window_energy_pj / activity.flits_ejected
                       if activity.flits_ejected else 0.0)
    return PowerReport(
        name=design.name,
        tech_nm=node,
        frequency_ghz=tech.frequency_ghz,
        cycles=cycles,
        crossbar_w=crossbar_w,
        buffer_w=buffer_w,
        allocator_w=allocator_w,
        link_w=link_w,
        leak_routers_w=leak_routers,
        leak_links_w=leak_links,
        energy_per_flit_pj=energy_per_flit,
        ipc_per_watt=(ipc / total_w if ipc is not None and total_w > 0
                      else None),
    )


def power_report(design: NetworkDesign, result, mesh: Optional[Mesh] = None,
                 num_mcs: int = 8, node: int = 65) -> PowerReport:
    """Price ``design`` from any result carrying activity counters
    (``SimulationResult`` or ``LoadLatencyPoint``) — no rerun needed."""
    return design_power(design, ActivityCounts.from_result(result),
                        mesh=mesh, num_mcs=num_mcs, node=node,
                        ipc=getattr(result, "ipc", None))


def node_sweep(design: NetworkDesign, activity: ActivityCounts,
               nodes, mesh: Optional[Mesh] = None, num_mcs: int = 8,
               ipc: Optional[float] = None) -> Dict[int, PowerReport]:
    """One simulation, every node: the same activity window priced at
    each technology node (simulated behaviour is node-independent)."""
    return {nm: design_power(design, activity, mesh=mesh, num_mcs=num_mcs,
                             node=nm, ipc=ipc)
            for nm in nodes}
