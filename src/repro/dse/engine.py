"""Exploration engine: confirm every legal candidate, then rank.

:func:`explore` enumerates the spec's space and runs every legal
candidate closed-loop on the spec's benchmark mix at its
``warmup``/``measure`` windows: one :class:`repro.parallel.SimTask` per
(candidate × benchmark), all fanned out in one
:func:`repro.parallel.run_tasks` call, so ``jobs=N`` parallelism,
deterministic per-task seeds and the on-disk result cache all apply;
results are bit-identical across jobs counts and cache states because
ranking consumes only the task payloads, never host-side timing.

Candidates rank by throughput-effectiveness (harmonic-mean IPC per chip
mm², best first), then name.  Every candidate is measured the same way,
so the Pareto frontier over (harmonic-mean IPC max, NoC mm² min) is the
frontier of the whole space.  A final analytic pass prices each
candidate in watts from its activity counters (:mod:`repro.power`) at
every node in ``spec.tech_nodes`` and computes the exact (IPC, mm², W)
frontier at the base node — no extra cycle runs, so the (IPC, mm²)
projection is bit-identical to a power-free exploration of the same
space.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..area.chip import design_chip_area_mm2, design_noc_area
from ..experiments import closed_task
from ..parallel import ReportCollector, run_tasks
from ..power import ActivityCounts, design_power, tech_node
from ..system.accelerator import SimulationResult
from ..system.metrics import harmonic_mean
from ..workloads.profiles import profile
from .pareto import (ParetoPoint, ParetoPoint3, pareto_frontier,
                     pareto_frontier3)
from .result import CandidateResult, ExplorationResult
from .space import SearchSpace

#: ``seed_policy`` values: ``"derived"`` gives every task its own
#: :func:`repro.parallel.derive_seed` stream (statistically independent
#: points — the default); ``"fixed"`` reuses the base seed for every task
#: (the protocol of the original Figure 2 walk, which the ``figure2``
#: preset must reproduce number-for-number).
SEED_POLICIES = ("derived", "fixed")


@dataclass(frozen=True)
class ExplorationSpec:
    """One exploration: a space, a benchmark mix, the closed-loop windows
    every candidate runs at, and a seed policy."""

    name: str
    space: SearchSpace
    mix: Tuple[str, ...]               # benchmark abbrs
    warmup: int = 400
    measure: int = 1000
    seed: int = 11
    seed_policy: str = "derived"
    #: Technology nodes the power model prices every candidate at; the
    #: first entry is the base node for the W objective and the 3-D
    #: frontier.  Power is analytic over the same simulations, so extra
    #: nodes cost no cycle runs.
    tech_nodes: Tuple[int, ...] = (65,)

    def __post_init__(self) -> None:
        if self.seed_policy not in SEED_POLICIES:
            raise ValueError(f"seed_policy {self.seed_policy!r} not in "
                             f"{SEED_POLICIES}")
        if not self.mix:
            raise ValueError("mix must name at least one benchmark")
        if not self.tech_nodes:
            raise ValueError("tech_nodes must name at least one node")
        for nm in self.tech_nodes:
            tech_node(nm)              # raises on unknown nodes
        for abbr in self.mix:
            profile(abbr)              # raises on unknown abbreviations


def _merged_activity(runs: Sequence[SimulationResult]) -> ActivityCounts:
    """One activity window spanning a candidate's whole benchmark mix:
    cycles and counters sum exactly (the mix runs are independent
    simulations, so their windows concatenate)."""
    return ActivityCounts(
        cycles=sum(r.icnt_cycles for r in runs),
        crossbar_traversals=sum(r.crossbar_traversals for r in runs),
        buffer_reads=sum(r.buffer_reads for r in runs),
        buffer_writes=sum(r.buffer_writes for r in runs),
        link_flit_hops=sum(r.link_flit_hops for r in runs),
        flits_ejected=sum(r.flits_ejected for r in runs),
    )


def explore(spec: ExplorationSpec, jobs: Optional[int] = None,
            cache=None, progress=None) -> ExplorationResult:
    """Run ``spec`` and return the ranked, Pareto-annotated result.

    ``jobs``/``cache``/``progress`` pass straight to
    :func:`repro.parallel.run_tasks`.  The returned result's ``host``
    field carries wall-clock and the task tally (tasks, executed, cached,
    summed task seconds); everything else is bit-identical across hosts,
    jobs counts and cache states.
    """
    start = time.perf_counter()
    candidates, rejected_points = spec.space.enumerate()
    fixed = spec.seed_policy == "fixed"
    tasks = [
        closed_task(c.design, profile(abbr), base_seed=spec.seed,
                    warmup=spec.warmup, measure=spec.measure,
                    config=c.chip_config(), fixed_seed=fixed)
        for c in candidates for abbr in spec.mix
    ]
    collector = ReportCollector(chain=progress)
    payloads = iter(run_tasks(tasks, jobs=jobs, cache=cache,
                              progress=collector))

    results = []
    for c in candidates:
        runs = [SimulationResult.from_json(next(payloads)["result"])
                for _ in spec.mix]
        hm_ipc = harmonic_mean([r.ipc for r in runs])
        chip_area = design_chip_area_mm2(c.design, c.mesh, c.num_mcs)
        activity = _merged_activity(runs)
        reports = [design_power(c.design, activity, mesh=c.mesh,
                                num_mcs=c.num_mcs, node=nm, ipc=hm_ipc)
                   for nm in spec.tech_nodes]
        results.append(CandidateResult(
            name=c.name,
            design=dataclasses.asdict(c.design),
            mesh=[c.mesh_cols, c.mesh_rows],
            num_mcs=c.num_mcs,
            noc_area_mm2=design_noc_area(c.design, c.mesh,
                                         c.num_mcs).noc_total,
            chip_area_mm2=chip_area,
            hm_ipc=hm_ipc,
            throughput_effectiveness=hm_ipc / chip_area,
            noc_power_w=reports[0].total_w,
            ipc_per_watt=reports[0].ipc_per_watt,
            power_by_node=[report.to_json() for report in reports],
        ))

    ranking = [r.name for r in sorted(
        results, key=lambda r: (-r.throughput_effectiveness, r.name))]
    frontier = pareto_frontier([ParetoPoint(r.name, r.hm_ipc,
                                            r.noc_area_mm2)
                                for r in results])
    frontier3 = pareto_frontier3([ParetoPoint3(r.name, r.hm_ipc,
                                               r.noc_area_mm2,
                                               r.noc_power_w)
                                  for r in results])
    for r in results:
        r.on_frontier = r.name in frontier.frontier
        r.dominated_by = frontier.dominated_by.get(r.name)
        r.on_frontier3d = r.name in frontier3.frontier
        r.dominated_by_3d = frontier3.dominated_by.get(r.name)

    host = {
        "wall_seconds": time.perf_counter() - start,
        "tasks": collector.total,
        "executed": collector.executed,
        "cached": collector.cached,
        "task_seconds": collector.seconds,
    }
    return ExplorationResult(
        preset=spec.name, seed=spec.seed, seed_policy=spec.seed_policy,
        mix=list(spec.mix), warmup=spec.warmup, measure=spec.measure,
        candidates=results,
        rejected=[{"name": p.name,
                   "violations": [{"rule": v.rule, "reason": v.reason}
                                  for v in p.violations]}
                  for p in rejected_points],
        ranking=ranking,
        frontier=list(frontier.frontier),
        tech_nodes=list(spec.tech_nodes),
        frontier3d=list(frontier3.frontier),
        host=host,
    )
