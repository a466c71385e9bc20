"""The benchmark's four workloads, driven through the public library API.

Each workload is one pass of API calls exactly as a user makes them:
``jobs=1``, no result cache, the default stepper, and the benchmark seed
as the library's ``seed``.  The module also knows, per workload, the
tasks behind those calls, so the benchmark can time their system
constructions on their own (``setup_s``), re-run one shortened task on
the reference stepper, and sanity-check every result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro import experiments, parallel
from repro.core import builder
from repro.core.builder import BASELINE, CP_CR, THROUGHPUT_EFFECTIVE
from repro.dse.presets import ROUND_MIX
from repro.noc.openloop import OpenLoopRunner
from repro.noc.traffic import UniformManyToFew
from repro.parallel import SimTask, derive_seed
from repro.system import accelerator
from repro.workloads.profiles import profile, quick_mix

#: Closed-loop windows (the library defaults, pinned here so a change of
#: default does not silently change the benchmark).
CHIP_WARMUP, CHIP_MEASURE = 400, 800
#: Open-loop windows, shortened from the library's 1000/3000 so that a
#: run holds enough passes for its per-segment minimum to shed host
#: interference (see run.robust_wall).  Past saturation the per-cycle
#: work is steady, so 200/600 keeps its character; below it 500/1500
#: still measures hundreds of packets per point.
LIGHT_WARMUP, LIGHT_MEASURE = 500, 1500
SATURATED_WARMUP, SATURATED_MEASURE = 200, 600
LIGHT_RATES = (0.005, 0.01, 0.02, 0.04)
SATURATED_RATES = (0.1, 0.2, 0.35)
NOC_DESIGNS = (BASELINE, CP_CR)
PATTERN = "uniform"


@dataclass(frozen=True)
class Point:
    """One simulation point's result, as the API returned it."""

    label: str
    kind: str
    result: dict

    def digest(self) -> str:
        """SHA-256 over the label and every result field.  The API's
        result objects carry no host time (the harness's ``elapsed`` stays
        in the payload), so the digest covers the full model output."""
        text = parallel.canonical_json([self.label, self.kind, self.result])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @property
    def flits(self) -> int:
        """Flits ejected as the result reports them: the measurement
        window for closed-loop points, the whole run for open-loop ones."""
        return self.result["flits_ejected"]

    def model_outputs(self) -> dict:
        """Simulated IPC, mean packet latency, accepted flits/cycle and
        saturation flag.  Model outputs on the record, not gated."""
        r = self.result
        if self.kind == "openloop":
            return {"ipc": None, "mean_packet_latency": r["mean_latency"],
                    "accepted_flits_per_cycle": r["accepted_flits_per_cycle"],
                    "saturated": r["saturated"]}
        return {"ipc": r["ipc"],
                "mean_packet_latency": r["mean_packet_latency"],
                "accepted_flits_per_cycle":
                    r["flits_ejected"] / r["icnt_cycles"],
                "saturated": None}


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> the tasks the pass runs, in result order.
    tasks: Callable[[int], List[SimTask]]
    #: (seed, progress callback or None) -> the pass's points.
    call: Callable[[int, Optional[Callable]], List[Point]]
    #: Index of the task re-run, shortened, on the reference stepper.
    check_index: int
    #: Expected saturation flag at an offered rate (None: either).
    saturated_at: Callable[[float], Optional[bool]] = lambda rate: None


# -- the API calls -------------------------------------------------------------


def _chip_mesh(seed: int, progress) -> List[Point]:
    comparison = experiments.compare_designs(
        [BASELINE, THROUGHPUT_EFFECTIVE],
        profiles=[profile(abbr) for abbr in ROUND_MIX],
        warmup=CHIP_WARMUP, measure=CHIP_MEASURE, seed=seed, jobs=1,
        cache=None, progress=progress)
    return [Point(f"{design}/{abbr}", "closed", result.to_json())
            for design, per_bench in comparison.results.items()
            for abbr, result in per_bench.items()]


def _chip_mesh_tasks(seed: int) -> List[SimTask]:
    return [experiments.closed_task(design, profile(abbr), base_seed=seed,
                                    warmup=CHIP_WARMUP, measure=CHIP_MEASURE)
            for design in (BASELINE, THROUGHPUT_EFFECTIVE)
            for abbr in ROUND_MIX]


def _chip_perfect_tasks(seed: int) -> List[SimTask]:
    # The perfect-NoC half of experiments.classify_benchmarks (Figure 7).
    return [SimTask(kind="perfect", label=f"perfect/{prof.abbr}",
                    seed=derive_seed(seed, "perfect", prof.abbr),
                    warmup=CHIP_WARMUP, measure=CHIP_MEASURE, profile=prof)
            for prof in quick_mix()]


def _chip_perfect(seed: int, progress) -> List[Point]:
    payloads = parallel.run_tasks(_chip_perfect_tasks(seed), jobs=1,
                                  cache=None, progress=progress)
    return [Point(p["label"], p["kind"], p["result"]) for p in payloads]


def _noc_tasks(rates: Sequence[float], warmup: int, measure: int
               ) -> Callable[[int], List[SimTask]]:
    def tasks(seed: int) -> List[SimTask]:
        return [experiments.open_loop_task(
                    design, UniformManyToFew, PATTERN, rate, base_seed=seed,
                    warmup=warmup, measure=measure)
                for design in NOC_DESIGNS for rate in rates]
    return tasks


def _noc_call(rates: Sequence[float], warmup: int, measure: int):
    def call(seed: int, progress) -> List[Point]:
        curves = experiments.load_latency_curves(
            list(NOC_DESIGNS), list(rates), UniformManyToFew,
            pattern_name=PATTERN, warmup=warmup, measure=measure,
            seed=seed, jobs=1, cache=None, progress=progress)
        return [Point(f"{curve.design}/{PATTERN}@{point.offered_rate:g}",
                      "openloop", point.to_json())
                for curve in curves for point in curve.points]
    return call


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("chip_mesh", _chip_mesh_tasks, _chip_mesh,
             check_index=5),                      # Throughput-Effective/BLK
    Workload("chip_perfect", _chip_perfect_tasks, _chip_perfect,
             check_index=7),                      # perfect/MUM
    Workload("noc_light",
             _noc_tasks(LIGHT_RATES, LIGHT_WARMUP, LIGHT_MEASURE),
             _noc_call(LIGHT_RATES, LIGHT_WARMUP, LIGHT_MEASURE),
             check_index=7,                       # CP-CR-4VC @ 0.04
             saturated_at=lambda rate: False),
    Workload("noc_saturated",
             _noc_tasks(SATURATED_RATES, SATURATED_WARMUP,
                        SATURATED_MEASURE),
             _noc_call(SATURATED_RATES, SATURATED_WARMUP, SATURATED_MEASURE),
             check_index=5,                       # CP-CR-4VC @ 0.35
             saturated_at=lambda rate: True if rate >= 0.35 else None),
)}


# -- construction, reference check, sanity checks --------------------------------


def construct(task: SimTask):
    """Build the ready-to-run system for ``task`` the way the harness's
    worker does: a chip for closed-loop and perfect-NoC tasks, an
    open-loop runner around a freshly built network system otherwise."""
    if task.kind == "closed":
        return accelerator.build_chip(task.profile, design=task.design,
                                      config=task.config, seed=task.seed)
    if task.kind == "perfect":
        return accelerator.perfect_chip(task.profile, config=task.config,
                                        seed=task.seed)
    system = builder.build(builder.open_loop_variant(task.design), None,
                           num_mcs=8, seed=task.seed)
    return OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                          task.pattern_factory(system.mc_nodes), task.rate,
                          seed=task.seed)


#: Shortened windows of the reference-stepper check point.
CHECK_WARMUP, CHECK_MEASURE = 100, 200


def reference_check(workload: Workload, seed: int) -> List[str]:
    """Run the workload's check task, shortened, through ``run_tasks`` on
    the default backend and by hand on ``use_reference_stepper()``; the
    two results must be equal field for field."""
    task = dataclasses.replace(workload.tasks(seed)[workload.check_index],
                               warmup=CHECK_WARMUP, measure=CHECK_MEASURE)
    default = parallel.run_tasks([task], jobs=1, cache=None)[0]["result"]
    target = construct(task)
    if task.kind == "openloop":
        target.network.use_reference_stepper()
    else:
        target.use_reference_stepper()
    reference = target.run(warmup=task.warmup,
                           measure=task.measure).to_json()
    if default == reference:
        return []
    fields = sorted(k for k in default if default[k] != reference.get(k))
    return [f"{task.label}: default backend differs from the reference "
            f"stepper in {fields}"]


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def problems(point: Point, task: SimTask, workload: Workload) -> List[str]:
    """Sanity checks on one result, from the model's own contracts."""
    r = point.result
    bad = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            bad.append(f"{point.label}: {what}")

    need(point.label == task.label, f"expected task {task.label}")
    need(r["flits_ejected"] > 0, "no flits ejected")
    need(r["crossbar_traversals"] == r["buffer_reads"],
         "crossbar traversals != buffer reads")
    if point.kind == "openloop":
        need(r["offered_rate"] == task.rate, "offered rate differs")
        need(r["cycles"] == task.warmup + task.measure, "cycle count")
        need(r["packets_measured"] > 0, "no packets measured")
        need(r["flits_injected"] >= r["flits_ejected"],
             "more flits ejected than injected")
        need(_finite(r["mean_latency"]) and r["mean_latency"] > 0,
             "mean latency not finite and positive")
        need(r["accepted_flits_per_cycle"] > 0, "nothing accepted")
        expected = workload.saturated_at(task.rate)
        need(expected is None or r["saturated"] == expected,
             f"saturated={r['saturated']}, expected {expected}")
    else:
        need(r["benchmark"] == task.profile.abbr, "benchmark differs")
        need(r["icnt_cycles"] == task.measure, "measured cycle count")
        need(r["retired_scalar"] > 0 and _finite(r["ipc"]) and r["ipc"] > 0,
             "IPC not finite and positive")
        need(_finite(r["mean_packet_latency"])
             and r["mean_packet_latency"] >= 0, "packet latency")
    return bad
