"""Programmatic experiment harness.

The benchmarks under ``benchmarks/`` regenerate the paper's figures; this
module is the library API underneath them, so downstream users can run the
same studies without pytest:

* :func:`compare_designs` — run a set of NoC design points over a benchmark
  suite, closed loop, and aggregate speedups (the shape of Figures 9, 16,
  17, 18, 19 and 20).
* :func:`classify_benchmarks` — the Section III-B characterization
  (perfect-NoC speedup x accepted traffic -> LL/LH/HH; Figures 7 and 8).
* :func:`load_latency_curves` — open-loop latency-versus-load sweeps for a
  set of designs and traffic patterns (Figure 21).

Everything returns plain dataclasses that round-trip through JSON exactly
(``to_json``/``from_json``).

Each study decomposes into independent simulation tasks — one per
(design, benchmark) or (design, pattern, rate) point — executed through the
pluggable executor in :mod:`repro.parallel`: ``jobs=1`` runs serially,
``jobs=N`` fans out over a process pool, and both paths are guaranteed to
produce field-for-field identical results (see
``tests/test_parallel_golden.py``).  Every task gets its own seed via
:func:`repro.parallel.derive_seed`, so design points are statistically
independent; an optional on-disk cache (``cache=``) skips simulations whose
exact specification has already been run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .core.builder import NetworkDesign
from .noc.openloop import LoadLatencyPoint
from .noc.traffic import DestinationPattern
from .parallel import SimTask, derive_seed, run_tasks
from .system.accelerator import SimulationResult
from .system.config import ChipConfig
from .system.metrics import classify, harmonic_mean
from .workloads.profiles import PROFILES, BenchmarkProfile


def closed_task(design: NetworkDesign, prof: BenchmarkProfile, *,
                base_seed: int, warmup: int, measure: int,
                config: Optional[ChipConfig] = None,
                telemetry=None, fixed_seed: bool = False) -> SimTask:
    """One closed-loop (design x benchmark) task with the canonical label
    and seed derivation.

    Every study that runs closed-loop points — :func:`compare_designs`,
    :func:`classify_benchmarks`, the DSE engine — builds its tasks here, so
    identical points share cache entries across studies.  ``fixed_seed``
    uses ``base_seed`` directly for every task (the protocol of the
    original Figure 2 walk, where all runs shared one seed) instead of the
    default per-task derivation.
    """
    seed = base_seed if fixed_seed else derive_seed(
        base_seed, "closed", design.name, prof.abbr)
    return SimTask(kind="closed", label=f"{design.name}/{prof.abbr}",
                   seed=seed, warmup=warmup, measure=measure, design=design,
                   profile=prof, config=config, telemetry=telemetry)


def open_loop_task(design: NetworkDesign, pattern_factory: Callable,
                   pattern_name: str, rate: float, *,
                   base_seed: int, warmup: int, measure: int,
                   config: Optional[ChipConfig] = None,
                   telemetry=None, fixed_seed: bool = False) -> SimTask:
    """One open-loop (design x pattern x rate) task with the canonical
    label and seed derivation (shared with :func:`load_latency_curves`).

    ``config`` contributes only its mesh geometry and MC count to an
    open-loop point; the DSE engine passes it when exploring a mesh-size
    axis."""
    seed = base_seed if fixed_seed else derive_seed(
        base_seed, "openloop", design.name, pattern_name, rate)
    return SimTask(kind="openloop",
                   label=f"{design.name}/{pattern_name}@{rate:g}",
                   seed=seed, warmup=warmup, measure=measure, design=design,
                   config=config, pattern_factory=pattern_factory,
                   pattern_name=pattern_name, rate=rate,
                   telemetry=telemetry)


@dataclass
class DesignComparison:
    """Closed-loop results for several designs over one benchmark suite."""

    #: results[design name][benchmark abbr]
    results: Dict[str, Dict[str, SimulationResult]]
    baseline: str

    def ipc(self, design: str) -> Dict[str, float]:
        return {abbr: r.ipc for abbr, r in self.results[design].items()}

    def speedups(self, design: str) -> Dict[str, float]:
        base = self.ipc(self.baseline)
        return {abbr: ipc / base[abbr] - 1.0
                for abbr, ipc in self.ipc(design).items()}

    def hm_speedup(self, design: str) -> float:
        base = harmonic_mean(list(self.ipc(self.baseline).values()))
        return harmonic_mean(list(self.ipc(design).values())) / base - 1.0

    def summary(self) -> Dict[str, float]:
        return {name: self.hm_speedup(name) for name in self.results
                if name != self.baseline}

    def to_json(self) -> dict:
        """JSON-compatible dict; exact float round trip."""
        return {
            "baseline": self.baseline,
            "results": {design: {abbr: r.to_json()
                                 for abbr, r in per_bench.items()}
                        for design, per_bench in self.results.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "DesignComparison":
        """Inverse of :meth:`to_json` with field-for-field equality."""
        return cls(
            baseline=data["baseline"],
            results={design: {abbr: SimulationResult.from_json(r)
                              for abbr, r in per_bench.items()}
                     for design, per_bench in data["results"].items()},
        )


def compare_designs(designs: Sequence[NetworkDesign],
                    profiles: Optional[Sequence[BenchmarkProfile]] = None,
                    baseline: Optional[NetworkDesign] = None,
                    config: Optional[ChipConfig] = None,
                    warmup: int = 400, measure: int = 800,
                    seed: int = 11, jobs: Optional[int] = None,
                    cache=None, progress=None,
                    telemetry=None) -> DesignComparison:
    """Run each design over the suite; the first design (or ``baseline``)
    anchors the speedups.

    One independent task per (design, benchmark) point, each with its own
    derived seed; ``jobs``/``cache``/``progress`` are forwarded to
    :func:`repro.parallel.run_tasks`.  ``telemetry`` is an optional
    :class:`repro.telemetry.TelemetrySpec` applied to every task; each
    task writes its artifacts under ``spec.out_dir`` (see
    :meth:`repro.parallel.SimTask.telemetry_dir`) without perturbing the
    simulation results.
    """
    profiles = list(profiles) if profiles is not None else list(PROFILES)
    designs = list(designs)
    if baseline is not None and baseline not in designs:
        designs.insert(0, baseline)
    base_name = (baseline or designs[0]).name
    tasks = [
        closed_task(design, prof, base_seed=seed, warmup=warmup,
                    measure=measure, config=config, telemetry=telemetry)
        for design in designs for prof in profiles
    ]
    payloads = run_tasks(tasks, jobs=jobs, cache=cache, progress=progress)
    results: Dict[str, Dict[str, SimulationResult]] = {}
    it = iter(payloads)
    for design in designs:
        results[design.name] = {
            prof.abbr: SimulationResult.from_json(next(it)["result"])
            for prof in profiles
        }
    return DesignComparison(results=results, baseline=base_name)


@dataclass
class BenchmarkClass:
    """One benchmark's Section III-B characterization."""

    abbr: str
    expected_group: str
    measured_group: str
    perfect_speedup: float
    traffic_bytes_per_cycle_node: float
    baseline: SimulationResult
    perfect: SimulationResult

    @property
    def matches_paper(self) -> bool:
        return self.measured_group == self.expected_group


@dataclass
class Characterization:
    benchmarks: List[BenchmarkClass]

    @property
    def agreement(self) -> float:
        if not self.benchmarks:
            return 0.0
        return sum(b.matches_paper for b in self.benchmarks) / \
            len(self.benchmarks)

    def hm_perfect_speedup(self, group: Optional[str] = None) -> float:
        rows = [b for b in self.benchmarks
                if group is None or b.expected_group == group]
        if not rows:
            raise ValueError(f"no benchmarks in group {group!r}")
        base = harmonic_mean([b.baseline.ipc for b in rows])
        perf = harmonic_mean([b.perfect.ipc for b in rows])
        return perf / base - 1.0


def classify_benchmarks(
        baseline_design: NetworkDesign,
        profiles: Optional[Sequence[BenchmarkProfile]] = None,
        config: Optional[ChipConfig] = None,
        warmup: int = 400, measure: int = 800,
        seed: int = 11, jobs: Optional[int] = None,
        cache=None, progress=None) -> Characterization:
    """Figure 7's study: perfect network versus the baseline mesh.

    Two tasks per benchmark (baseline mesh and perfect NoC), fanned out
    through :func:`repro.parallel.run_tasks`.  The baseline tasks share
    their seed derivation with :func:`compare_designs`, so a result cache
    is reused across the two studies.
    """
    profiles = list(profiles) if profiles is not None else list(PROFILES)
    tasks: List[SimTask] = []
    for prof in profiles:
        tasks.append(closed_task(baseline_design, prof, base_seed=seed,
                                 warmup=warmup, measure=measure,
                                 config=config))
        tasks.append(SimTask(
            kind="perfect", label=f"perfect/{prof.abbr}",
            seed=derive_seed(seed, "perfect", prof.abbr),
            warmup=warmup, measure=measure, profile=prof, config=config))
    payloads = run_tasks(tasks, jobs=jobs, cache=cache, progress=progress)
    rows = []
    for i, prof in enumerate(profiles):
        base = SimulationResult.from_json(payloads[2 * i]["result"])
        perfect = SimulationResult.from_json(payloads[2 * i + 1]["result"])
        speedup = perfect.ipc / base.ipc - 1.0
        traffic = perfect.accepted_bytes_per_cycle_per_node
        rows.append(BenchmarkClass(
            abbr=prof.abbr,
            expected_group=prof.expected_group,
            measured_group=classify(speedup, traffic),
            perfect_speedup=speedup,
            traffic_bytes_per_cycle_node=traffic,
            baseline=base,
            perfect=perfect,
        ))
    return Characterization(rows)


@dataclass
class LoadLatencyCurve:
    design: str
    pattern: str
    points: List[LoadLatencyPoint]

    def saturation_rate(self) -> float:
        """First offered rate at which the network saturates."""
        for point in self.points:
            if point.saturated:
                return point.offered_rate
        return float("inf")

    def to_json(self) -> dict:
        """JSON-compatible dict; exact float round trip."""
        return {"design": self.design, "pattern": self.pattern,
                "points": [p.to_json() for p in self.points]}

    @classmethod
    def from_json(cls, data: dict) -> "LoadLatencyCurve":
        """Inverse of :meth:`to_json` with field-for-field equality."""
        return cls(design=data["design"], pattern=data["pattern"],
                   points=[LoadLatencyPoint.from_json(p)
                           for p in data["points"]])


def load_latency_curves(
        designs: Sequence[NetworkDesign],
        rates: Sequence[float],
        pattern_factory: Callable[[List], DestinationPattern],
        pattern_name: str = "uniform",
        warmup: int = 1000, measure: int = 3000,
        seed: int = 7, jobs: Optional[int] = None,
        cache=None, progress=None,
        telemetry=None) -> List[LoadLatencyCurve]:
    """Figure 21's open-loop study over a set of designs.

    Every (design, pattern, rate) point gets an independently derived seed
    (a single shared seed would correlate the Bernoulli injection streams
    across points) and runs as its own task.  For ``jobs > 1`` the
    ``pattern_factory`` must be picklable — a class like
    :class:`~repro.noc.traffic.UniformManyToFew` or a
    :func:`functools.partial`, not a lambda.  ``pattern_name`` doubles as
    the cache discriminator for the pattern, so keep it unique per pattern
    configuration.  ``telemetry`` (a :class:`repro.telemetry.TelemetrySpec`)
    attaches per-task observability exactly as in :func:`compare_designs`.
    """
    designs = list(designs)
    rates = list(rates)
    tasks = [
        open_loop_task(design, pattern_factory, pattern_name, rate,
                       base_seed=seed, warmup=warmup, measure=measure,
                       telemetry=telemetry)
        for design in designs for rate in rates
    ]
    payloads = run_tasks(tasks, jobs=jobs, cache=cache, progress=progress)
    curves = []
    it = iter(payloads)
    for design in designs:
        points = [LoadLatencyPoint.from_json(next(it)["result"])
                  for _ in rates]
        curves.append(LoadLatencyCurve(design.name, pattern_name, points))
    return curves
