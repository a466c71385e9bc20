"""Multi-fidelity exploration engine: screen → halve → confirm → rank.

The evaluator climbs a :class:`FidelityLadder`:

1. **screen** (optional) — one cheap open-loop run per candidate at a
   fixed offered load; the accepted-throughput-per-mm² proxy drops the
   clearly bandwidth-starved points before any closed-loop cycle runs;
2. **successive halving** — each round runs the survivors closed-loop on
   a small benchmark mix with short measurement windows (doubling every
   round) and keeps the better half by throughput-effectiveness;
3. **confirm** — the finalists run the full mix at full windows.

Every evaluation is an independent :class:`repro.parallel.SimTask` fanned
out through :func:`repro.parallel.run_tasks`, so ``jobs=N`` parallelism,
deterministic per-task seeds and the on-disk result cache all apply;
results are bit-identical across jobs counts and cache states because
ranking consumes only the task payloads, never host-side timing.

Ranking and the Pareto frontier come last: candidates order by the
highest fidelity they reached, then the stage metric, then name; the
frontier is exact over (harmonic-mean IPC max, NoC mm² min) among
every candidate with a closed-loop measurement.  A final analytic pass
prices each such candidate in watts from its activity counters
(:mod:`repro.power`) at every node in ``spec.tech_nodes`` and computes
the exact (IPC, mm², W) frontier at the base node — no extra cycle runs,
so the (IPC, mm²) projection is bit-identical to a power-free
exploration of the same space.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..area.chip import design_chip_area_mm2, design_noc_area
from ..experiments import closed_task, open_loop_task
from ..noc.traffic import UniformManyToFew
from ..parallel import (ReportCollector, resolve_jobs,
                        run_tasks)
from ..power import ActivityCounts, design_power, tech_node
from ..system.accelerator import SimulationResult
from ..system.metrics import harmonic_mean
from ..telemetry.profiler import HostProfiler
from ..workloads.profiles import profile
from .pareto import (ParetoPoint, ParetoPoint3, pareto_frontier,
                     pareto_frontier3)
from .result import CandidateResult, ExplorationResult, StageOutcome
from .space import Candidate, SearchSpace

#: ``seed_policy`` values: ``"derived"`` gives every task its own
#: :func:`repro.parallel.derive_seed` stream (statistically independent
#: points — the default); ``"fixed"`` reuses the base seed for every task
#: (the protocol of the original Figure 2 walk, which the ``figure2``
#: preset must reproduce number-for-number).
SEED_POLICIES = ("derived", "fixed")


@dataclass(frozen=True)
class FidelityLadder:
    """Evaluation stages and their budgets (cycles are per stage run)."""

    screen: bool = True
    screen_rate: float = 0.35          # offered flits/cycle/node
    screen_warmup: int = 300
    screen_measure: int = 600
    screen_keep: float = 0.5           # fraction kept past the screen
    halving_rounds: int = 1
    round_warmup: int = 100            # doubled every halving round
    round_measure: int = 200
    confirm_warmup: int = 400
    confirm_measure: int = 1000
    min_survivors: int = 3             # floor under every cut

    def __post_init__(self) -> None:
        if not 0.0 < self.screen_keep <= 1.0:
            raise ValueError("screen_keep must be in (0, 1]")
        if self.halving_rounds < 0:
            raise ValueError("halving_rounds must be >= 0")
        if self.min_survivors < 1:
            raise ValueError("min_survivors must be >= 1")


@dataclass(frozen=True)
class ExplorationSpec:
    """One exploration: a space, a mix, a ladder and a seed policy."""

    name: str
    space: SearchSpace
    mix: Tuple[str, ...]               # confirm-stage benchmark abbrs
    round_mix: Tuple[str, ...]         # halving-round abbrs (small)
    ladder: FidelityLadder = FidelityLadder()
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
        for abbr in (*self.mix, *self.round_mix):
            profile(abbr)              # raises on unknown abbreviations


@dataclass(frozen=True)
class StageReport:
    """Host-side tally of one ladder stage (not part of the result's
    bit-identical payload — lands in ``host.json``)."""

    stage: str
    evaluated: int                     # candidates entering the stage
    kept: int                          # candidates promoted
    tasks: int
    executed: int                      # cache misses actually simulated
    cached: int
    seconds: float                     # summed task wall-clock

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _rank_stage(stage: str, metrics: Dict[str, float], keep: int,
                hm_ipc: Optional[Dict[str, float]] = None
                ) -> Dict[str, StageOutcome]:
    """Order one stage's cohort (metric desc, then name) and mark the top
    ``keep`` as promoted."""
    ordered = sorted(metrics, key=lambda name: (-metrics[name], name))
    return {
        name: StageOutcome(
            stage=stage, metric=metrics[name],
            hm_ipc=None if hm_ipc is None else hm_ipc[name],
            rank=rank, kept=rank <= keep)
        for rank, name in enumerate(ordered, start=1)
    }


def _keep_count(evaluated: int, target: int, floor: int) -> int:
    """Survivor count for a cut: ``target`` but at least ``floor`` and
    never more than the cohort."""
    return min(evaluated, max(floor, target))


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


def explore_preset(name: str, seed: Optional[int] = None,
                   jobs: Optional[int] = None, cache=None,
                   progress=None) -> ExplorationResult:
    """Run a named preset exploration (``figure2``/``smoke``/...).

    The single submission entry point shared by ``repro explore`` and the
    job server: both resolve the preset, apply an optional seed override
    and call :func:`explore`, so a served exploration is evaluated
    exactly as a direct CLI run and its payload (which excludes host-side
    timing) is bit-identical.  Unknown names raise ``KeyError`` with a
    did-you-mean hint.
    """
    from .presets import preset
    spec = preset(name)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    return explore(spec, jobs=jobs, cache=cache, progress=progress)


def explore(spec: ExplorationSpec, jobs: Optional[int] = None,
            cache=None, progress=None) -> ExplorationResult:
    """Run ``spec`` and return the ranked, Pareto-annotated result.

    ``jobs``/``cache``/``progress`` pass straight to
    :func:`repro.parallel.run_tasks` for every stage, which with
    ``jobs=N`` share one process pool across the whole ladder (workers
    warm up once, not once per stage).  The returned result's ``host``
    field carries wall-clock, per-stage tallies and cache-hit rates;
    everything else is bit-identical across hosts, jobs counts and cache
    states.
    """
    ladder = spec.ladder
    jobs = resolve_jobs(jobs)
    fixed = spec.seed_policy == "fixed"
    profiler = HostProfiler()
    stage_reports: List[StageReport] = []
    history: Dict[str, List[StageOutcome]] = {}
    #: Per candidate: the full mix's SimulationResults at the *latest*
    #: closed-loop stage it reached — the activity window the power
    #: model prices (each stage overwrites the one before).
    closed_results: Dict[str, List[SimulationResult]] = {}

    with profiler.section("enumerate"):
        candidates, rejected_points = spec.space.enumerate()
        by_name = {c.name: c for c in candidates}
        noc_area = {c.name: design_noc_area(c.design, c.mesh,
                                            c.num_mcs).noc_total
                    for c in candidates}
        chip_area = {c.name: design_chip_area_mm2(c.design, c.mesh,
                                                  c.num_mcs)
                     for c in candidates}
    for name in by_name:
        history[name] = []
    survivors: List[Candidate] = list(candidates)

    # One process pool serves every ladder stage (screen → halving →
    # confirm): workers warm up once, and the fail-fast
    # cancel-then-harvest contract inside run_tasks still applies per
    # stage because each call owns only its own futures.
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None

    def run_stage(stage: str, tasks, collect) -> None:
        """Run one stage's tasks, apply ``collect(payloads)`` → metric
        dicts, record outcomes and cut the survivor list."""
        nonlocal survivors
        collector = ReportCollector(chain=progress)
        with profiler.section(stage):
            payloads = run_tasks(tasks, jobs=jobs, cache=cache,
                                 progress=collector, pool=pool)
            metrics, hm_ipc, keep = collect(payloads)
            outcomes = _rank_stage(stage, metrics, keep, hm_ipc)
        for name, outcome in outcomes.items():
            history[name].append(outcome)
        survivors = [c for c in survivors if outcomes[c.name].kept]
        stage_reports.append(StageReport(
            stage=stage, evaluated=len(outcomes), kept=len(survivors),
            tasks=collector.total, executed=collector.executed,
            cached=collector.cached, seconds=collector.seconds))

    try:
        # -- stage 1: open-loop saturation-throughput screen -----------------
        if ladder.screen and len(survivors) > ladder.min_survivors:
            cohort = list(survivors)
            tasks = [
                open_loop_task(c.design, UniformManyToFew, "uniform",
                               ladder.screen_rate, base_seed=spec.seed,
                               warmup=ladder.screen_warmup,
                               measure=ladder.screen_measure,
                               config=c.chip_config(), fixed_seed=fixed)
                for c in cohort
            ]

            def collect_screen(payloads):
                metrics = {}
                for c, payload in zip(cohort, payloads):
                    accepted = payload["result"]["accepted_flits_per_cycle"]
                    # Throughput-effectiveness proxy: accepted NoC
                    # throughput per chip mm² (no IPC yet at this fidelity).
                    metrics[c.name] = accepted / chip_area[c.name]
                keep = _keep_count(
                    len(cohort),
                    math.ceil(len(cohort) * ladder.screen_keep),
                    ladder.min_survivors)
                return metrics, None, keep

            run_stage("screen", tasks, collect_screen)

        # -- stage 2: successive-halving closed-loop rounds ------------------
        for round_index in range(ladder.halving_rounds):
            if len(survivors) <= ladder.min_survivors:
                break
            scale = 2 ** round_index
            cohort = list(survivors)
            mix = spec.round_mix or spec.mix
            tasks = [
                closed_task(c.design, profile(abbr), base_seed=spec.seed,
                            warmup=ladder.round_warmup * scale,
                            measure=ladder.round_measure * scale,
                            config=c.chip_config(), fixed_seed=fixed)
                for c in cohort for abbr in mix
            ]

            def collect_round(payloads, cohort=cohort, mix=mix):
                metrics, hm_ipc = {}, {}
                it = iter(payloads)
                for c in cohort:
                    runs = [SimulationResult.from_json(next(it)["result"])
                            for _ in mix]
                    closed_results[c.name] = runs
                    hm_ipc[c.name] = harmonic_mean([r.ipc for r in runs])
                    metrics[c.name] = hm_ipc[c.name] / chip_area[c.name]
                keep = _keep_count(len(cohort), math.ceil(len(cohort) / 2),
                                   ladder.min_survivors)
                return metrics, hm_ipc, keep

            run_stage(f"round{round_index + 1}", tasks, collect_round)

        # -- stage 3: confirm finalists on the full mix ----------------------
        if survivors:
            cohort = list(survivors)
            tasks = [
                closed_task(c.design, profile(abbr), base_seed=spec.seed,
                            warmup=ladder.confirm_warmup,
                            measure=ladder.confirm_measure,
                            config=c.chip_config(), fixed_seed=fixed)
                for c in cohort for abbr in spec.mix
            ]

            def collect_confirm(payloads, cohort=cohort):
                metrics, hm_ipc = {}, {}
                it = iter(payloads)
                for c in cohort:
                    runs = [SimulationResult.from_json(next(it)["result"])
                            for _ in spec.mix]
                    closed_results[c.name] = runs
                    hm_ipc[c.name] = harmonic_mean([r.ipc for r in runs])
                    metrics[c.name] = hm_ipc[c.name] / chip_area[c.name]
                return metrics, hm_ipc, len(cohort)   # confirm cuts nobody

            run_stage("confirm", tasks, collect_confirm)
    finally:
        if pool is not None:
            pool.shutdown()

    # -- rank, frontier, result ----------------------------------------------
    with profiler.section("rank"):
        results: List[CandidateResult] = []
        for c in candidates:
            stages = history[c.name]
            closed = [s for s in stages if s.hm_ipc is not None]
            final = stages[-1] if stages else None
            hm_ipc = closed[-1].hm_ipc if closed else None
            results.append(CandidateResult(
                name=c.name,
                design=dataclasses.asdict(c.design),
                mesh=[c.mesh_cols, c.mesh_rows],
                num_mcs=c.num_mcs,
                noc_area_mm2=noc_area[c.name],
                chip_area_mm2=chip_area[c.name],
                stages=list(stages),
                fidelity=final.stage if final else "enumerated",
                hm_ipc=hm_ipc,
                throughput_effectiveness=(
                    None if hm_ipc is None
                    else hm_ipc / chip_area[c.name]),
            ))

        # Rank: fidelity reached (stage count) desc, then the final
        # stage's metric desc, then name — fully deterministic.
        def rank_key(r: CandidateResult):
            depth = len(r.stages)
            metric = r.stages[-1].metric if r.stages else 0.0
            return (-depth, -metric, r.name)

        ranking = [r.name for r in sorted(results, key=rank_key)]

        closed_points = [ParetoPoint(r.name, r.hm_ipc, r.noc_area_mm2)
                         for r in results if r.hm_ipc is not None]
        frontier = pareto_frontier(closed_points)
        for r in results:
            r.on_frontier = r.name in frontier.frontier
            r.dominated_by = frontier.dominated_by.get(r.name)

    # -- power: price every closed-loop candidate at each node ---------------
    with profiler.section("power"):
        points3: List[ParetoPoint3] = []
        for r in results:
            runs = closed_results.get(r.name)
            if r.hm_ipc is None or not runs:
                continue
            c = by_name[r.name]
            activity = _merged_activity(runs)
            reports = [design_power(c.design, activity, mesh=c.mesh,
                                    num_mcs=c.num_mcs, node=nm,
                                    ipc=r.hm_ipc)
                       for nm in spec.tech_nodes]
            base = reports[0]
            r.noc_power_w = base.total_w
            r.ipc_per_watt = base.ipc_per_watt
            r.power_by_node = [report.to_json() for report in reports]
            points3.append(ParetoPoint3(r.name, r.hm_ipc,
                                        r.noc_area_mm2, base.total_w))
        frontier3 = pareto_frontier3(points3)
        for r in results:
            r.on_frontier3d = r.name in frontier3.frontier
            r.dominated_by_3d = frontier3.dominated_by.get(r.name)

    host = {
        "wall_seconds": sum(profiler.sections.values()),
        "phases": dict(profiler.sections),
        "stages": [s.to_json() for s in stage_reports],
        "tasks": sum(s.tasks for s in stage_reports),
        "executed": sum(s.executed for s in stage_reports),
        "cached": sum(s.cached for s in stage_reports),
    }
    return ExplorationResult(
        preset=spec.name, seed=spec.seed, seed_policy=spec.seed_policy,
        mix=list(spec.mix), round_mix=list(spec.round_mix),
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
