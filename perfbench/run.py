"""Host-throughput benchmark of the repro simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload chip_mesh --seed 1 --seconds 25 \\
        --trace 0

Runs one workload (see ``perfbench/suite.py``) through the public library
API for ``--seconds`` seconds of repeated passes and prints, as the last
line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics from untraced passes;
``--trace 1`` interleaves traced and untraced passes and reports the
per-layer metrics (``perfbench/layers.py``), the tracing overhead and an
Amdahl table of each layer's share of a traced pass.  Every run
checks its results: field-for-field agreement with the reference stepper
on one shortened point, sanity checks on every point, identical digests
across passes (traced and untraced alike) and across runs of the same
source tree and seed, and identical per-layer counts across traced passes
and runs.  A full record of each run, spans included, is written to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Environment variables that select something other than the default
#: program (workers, fleets, steppers, caches, observability, logging);
#: each is cleared, and its value recorded, before ``repro`` is imported.
PINNED_ENV = ("REPRO_JOBS", "REPRO_FLEET", "REPRO_BATCHED_STEPPER",
              "REPRO_REFERENCE_STEPPER", "REPRO_CACHE_DIR",
              "REPRO_BENCH_CACHE", "REPRO_CACHE_MAX_MB", "REPRO_OBS",
              "REPRO_LOG_FORMAT")

IMPORT_SAMPLES = 5
CONSTRUCTION_ROUNDS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "sim_flits_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- environment ------------------------------------------------------------------


def pin_environment() -> Dict[str, str]:
    """Clear every program-selecting variable; return what was set."""
    cleared = {}
    for name in PINNED_ENV:
        if name in os.environ:
            cleared[name] = os.environ.pop(name)
    return cleared


def source_digest() -> str:
    """SHA-256 over the sources of the program and of this benchmark (path
    and content): identifies what was measured when there is no git
    metadata, and keys the cross-run record."""
    digest = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted([*(SRC / "repro").rglob("*.py"), *here.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment_record(cleared: Dict[str, str]) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "git_commit": git_commit(), "source_sha256": source_digest(),
            "cleared_env": cleared}


def import_seconds() -> float:
    """Time ``import repro`` in a fresh interpreter (the median of
    ``IMPORT_SAMPLES``), so every sample pays the same cold import."""
    code = ("import time; t = time.perf_counter(); import repro; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             cwd=str(ROOT), capture_output=True, text=True,
                             timeout=60, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# -- passes -----------------------------------------------------------------------


class Ledger:
    """Attempted/failed points and run-level problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str, points: int = 1) -> None:
        self.failed += points
        self.problems.append(message)


class Pass(NamedTuple):
    wall: float
    #: Seconds from the call (then from each progress report) to the next
    #: report, and from the last report to the call's return.
    segments: List[float]
    points: list


def run_pass(workload, seed: int, tasks, ledger: Ledger,
             progress=None) -> Optional[Pass]:
    """One timed pass, or None if it raised.  Every point is
    sanity-checked.  ``progress`` is chained after the segment clock."""
    from suite import problems
    ledger.attempted += len(tasks)
    gc.collect()            # start every pass from the same heap state
    marks = []

    def mark(report) -> None:
        marks.append(time.perf_counter())
        if progress is not None:
            progress(report)

    start = time.perf_counter()
    try:
        points = workload.call(seed, mark)
    except Exception as exc:                  # a failed pass is reported
        ledger.fail(f"pass raised {type(exc).__name__}: {exc}", len(tasks))
        return None
    end = time.perf_counter()
    if len(points) != len(tasks) or len(marks) != len(tasks):
        ledger.fail(f"{len(points)} points and {len(marks)} progress "
                    f"reports for {len(tasks)} tasks", len(tasks))
        return None
    for point, task in zip(points, tasks):
        bad = problems(point, task, workload)
        if bad:
            ledger.fail("; ".join(bad))
    edges = [start] + marks + [end]
    return Pass(end - start, [b - a for a, b in zip(edges, edges[1:])],
                points)


def robust_wall(passes: List[Pass]) -> float:
    """A pass's wall time without host interference: the sum over its
    segments of each segment's fastest time across passes.

    The simulator is deterministic, so every pass does the same work and
    interference from other tenants of the host can only add time.  On a
    shared host that interference comes in bursts of seconds and drifts
    by tens of percent over a minute, which moves a median of a few
    passes; the fastest time per segment does not follow it (min-of-N,
    as the repo's other benchmarks time).
    """
    return sum(min(column) for column in zip(*(p.segments for p in passes)))


def compare_digests(reference: Dict[str, str], points, what: str,
                    ledger: Ledger) -> None:
    for point in points:
        if reference.get(point.label) != point.digest():
            ledger.fail(f"{point.label}: result digest differs {what}")


def budget_allows(started: float, walls: List[float], seconds: float) -> bool:
    """Whether another pass fits in the measuring budget."""
    return time.perf_counter() - started + walls[-1] <= seconds


# -- cross-run record -------------------------------------------------------------


def check_against_record(workload: str, seed: int, source: str,
                         digests: Dict[str, str],
                         counts: Optional[Dict[str, int]],
                         ledger: Ledger) -> None:
    """Compare with the last run of the same source tree and seed in this
    checkout, then update the record.  Results and per-layer counts of a
    deterministic simulator repeat exactly; drift is a failure."""
    path = OUT / "record" / f"{workload}-seed{seed}.json"
    record = {}
    if path.is_file():
        record = json.loads(path.read_text())
        if record.get("source_sha256") != source:
            record = {}
    if record.get("digests", digests) != digests:
        ledger.fail("result digests differ from an earlier run of the "
                    "same source and seed")
    if counts is not None and record.get("counts", counts) != counts:
        drift = sorted(k for k in counts
                       if record["counts"].get(k) != counts[k])
        ledger.fail(f"per-layer counts drifted from an earlier run: {drift}")
    record.update({"source_sha256": source, "digests": digests})
    if counts is not None:
        record["counts"] = counts
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))


# -- reporting --------------------------------------------------------------------


def print_model_outputs(points) -> None:
    print("model outputs (simulated; on the record, not gated):")
    print(f"  {'point':34} {'IPC':>8} {'latency':>9} {'flits/cyc':>10} "
          f"{'saturated':>9}")
    for point in points:
        out = point.model_outputs()
        ipc = "-" if out["ipc"] is None else f"{out['ipc']:.3f}"
        sat = "-" if out["saturated"] is None else str(out["saturated"])
        print(f"  {point.label:34} {ipc:>8} "
              f"{out['mean_packet_latency']:9.2f} "
              f"{out['accepted_flits_per_cycle']:10.4f} {sat:>9}")


def print_amdahl(rows, pass_s: float, traced_s: float,
                 untraced_s: float) -> None:
    print(f"Amdahl table of the fastest traced pass ({pass_s:.3f} s); "
          f"wall_s traced {traced_s:.3f} s, untraced {untraced_s:.3f} s, "
          f"tracing overhead {traced_s / untraced_s - 1.0:+.1%}")
    print(f"  {'layer':40} {'incl s':>8} {'self s':>8} {'self %':>7} "
          f"{'incl %':>7}")
    for layer, incl, self_s, self_share, incl_share in rows:
        print(f"  {layer:40} {incl:8.3f} {self_s:8.3f} "
              f"{self_share:7.1%} {incl_share:7.1%}")


def emit(correct: bool, ledger: Ledger, metrics: Dict[str, dict]) -> None:
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))


# -- main -------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    cleared = pin_environment()
    setup_import = import_seconds()

    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import layers
    import suite
    if args.workload not in suite.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = suite.WORKLOADS[args.workload]
    env = environment_record(cleared)
    tasks = workload.tasks(args.seed)
    ledger = Ledger()

    # Set-up: the import above plus every system the pass constructs,
    # built CONSTRUCTION_ROUNDS times (median).
    rounds = []
    for _ in range(CONSTRUCTION_ROUNDS):
        start = time.perf_counter()
        for task in tasks:
            suite.construct(task)
        rounds.append(time.perf_counter() - start)
    setup_s = setup_import + statistics.median(rounds)

    ledger.attempted += 1
    for problem in suite.reference_check(workload, args.seed):
        ledger.fail(problem)

    started = time.perf_counter()
    first = run_pass(workload, args.seed, tasks, ledger)
    if first is None:
        emit(False, ledger, {})
        return 1
    untraced = [first]
    walls = [first.wall]              # every pass, in the order run
    points = first.points
    digests = {p.label: p.digest() for p in points}
    metrics: Dict[str, dict] = {}
    counts = None
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env,
              "setup": {"import_s": setup_import,
                        "construction_rounds_s": rounds},
              "points": [{"label": p.label, "digest": digests[p.label],
                          "model_outputs": p.model_outputs()}
                         for p in points]}

    if not args.trace:
        while budget_allows(started, walls, args.seconds):
            result = run_pass(workload, args.seed, tasks, ledger)
            if result is None:
                break
            untraced.append(result)
            walls.append(result.wall)
            compare_digests(digests, result.points, "between passes",
                            ledger)
        wall_s = robust_wall(untraced)
        flits = sum(p.flits for p in points)
        values = {"setup_s": setup_s, "wall_s": wall_s,
                  "sim_flits_per_s": flits / wall_s,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
        record["untraced_walls_s"] = walls
    else:
        # Two traced passes, then untraced and traced in turn while the
        # budget lasts; the overhead compares the two robust walls.
        tracer = layers.Tracer()
        traced = []           # (pass, layer metrics, counts, records, spans)
        while len(traced) < 2 or budget_allows(started, walls,
                                               args.seconds):
            if len(traced) >= 2 and len(untraced) < len(traced):
                result = run_pass(workload, args.seed, tasks, ledger)
                if result is None:
                    break
                untraced.append(result)
            else:
                tracer.reset()
                tracer.install()
                try:
                    result = run_pass(workload, args.seed, tasks, ledger,
                                      progress=tracer.progress)
                finally:
                    tracer.uninstall()
                if result is None:
                    break
                traced.append((
                    result, layers.layer_metrics(tracer.acc, tracer.capacity),
                    layers.exact_counts(tracer.acc, tracer.capacity),
                    tracer.snapshot(), tracer.points))
            walls.append(result.wall)
            compare_digests(digests, result.points,
                            "between traced and untraced passes", ledger)
        if len(traced) < 2:
            emit(False, ledger, {})
            return 1
        counts = traced[0][2]
        for other in traced[1:]:
            if other[2] != counts:
                drift = sorted(k for k in counts if other[2][k] != counts[k])
                ledger.fail(f"per-layer counts differ between traced "
                            f"passes: {drift}")
        traced_wall = robust_wall([t[0] for t in traced])
        untraced_wall = robust_wall(untraced)
        # Layer metrics and the Amdahl table come from the fastest traced
        # pass, one coherent snapshot (its counts equal every other's).
        fastest = min(traced, key=lambda t: t[0].wall)
        metrics = {name: {"value": fastest[1][name], "unit": unit}
                   for name, unit in layers.LAYER_METRICS}
        metrics["trace.overhead_ratio"] = {
            "value": traced_wall / untraced_wall - 1.0, "unit": "ratio"}
        rows = layers.amdahl_rows(fastest[3], fastest[0].wall)
        print_amdahl(rows, fastest[0].wall, traced_wall, untraced_wall)
        record.update({
            "untraced_walls_s": [p.wall for p in untraced],
            "traced_walls_s": [t[0].wall for t in traced],
            "amdahl": [dict(zip(("layer", "inclusive_s", "self_s",
                                 "self_share", "inclusive_share"), row))
                       for row in rows],
            "counts": counts,
            "spans": [{"pass": i, "points": t[4]}
                      for i, t in enumerate(traced)]})

    check_against_record(args.workload, args.seed, env["source_sha256"],
                         digests, counts, ledger)
    print_model_outputs(points)
    for name, metric in metrics.items():
        print(f"  {name:40} {metric['value']:.6g} {metric['unit']}")
    for problem in ledger.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    record.update({"metrics": metrics, "attempted": ledger.attempted,
                   "failed": ledger.failed, "problems": ledger.problems})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str))
    correct = ledger.failed == 0 and not ledger.problems
    emit(correct, ledger, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
