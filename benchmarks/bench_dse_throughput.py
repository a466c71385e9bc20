"""DSE engine throughput: the machine-readable perf trajectory.

Runs the fixed ``smoke`` exploration twice against a fresh cache — once
cold (every task simulated), once warm (every task a cache hit) — and
writes ``benchmarks/results/BENCH_dse.json``: wall-clock, evaluations per
second and cache-hit rates.  Later changes compare their number against
this baseline, so the workload is pinned (smoke preset: every legal
candidate on its 3-benchmark mix; jobs from ``REPRO_JOBS`` via
``common``).

The two explorations must also return bit-identical payloads — the same
guarantee ``tests/test_dse_golden.py`` pins for ``figure2`` — so the
bench doubles as a cheap determinism canary on the smoke space.
"""

from __future__ import annotations

import json
import tempfile
import time

from common import JOBS, RESULTS_DIR, once, report
from repro.dse import explore, preset

BENCH_SCHEMA = 2


def _run(cache_dir: str):
    spec = preset("smoke")
    start = time.perf_counter()
    result = explore(spec, jobs=JOBS, cache=cache_dir)
    return result, time.perf_counter() - start


def _experiment():
    with tempfile.TemporaryDirectory(prefix="dse-bench-cache-") as cache:
        cold, cold_seconds = _run(cache)
        warm, warm_seconds = _run(cache)
    if warm.to_json() != cold.to_json():
        raise AssertionError("smoke exploration is not bit-identical "
                             "between cold and warm cache runs")

    def run_stats(result, seconds):
        host = result.host or {}
        tasks = host.get("tasks", 0)
        return {
            "wall_seconds": round(seconds, 3),
            "tasks": tasks,
            "executed": host.get("executed", 0),
            "cached": host.get("cached", 0),
            "cache_hit_rate": (host.get("cached", 0) / tasks
                               if tasks else 0.0),
            "evaluations_per_second": (round(tasks / seconds, 2)
                                       if seconds > 0 else 0.0),
        }

    payload = {
        "schema": BENCH_SCHEMA,
        "preset": "smoke",
        "jobs": JOBS,
        "candidates": len(cold.candidates),
        "rejected": len(cold.rejected),
        "cold": run_stats(cold, cold_seconds),
        "warm": run_stats(warm, warm_seconds),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_dse.json"
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")

    rows = [
        f"{'run':6s} {'wall s':>8s} {'tasks':>6s} {'executed':>9s} "
        f"{'hit rate':>9s} {'evals/s':>8s}",
    ]
    for label in ("cold", "warm"):
        stats = payload[label]
        rows.append(f"{label:6s} {stats['wall_seconds']:8.2f} "
                    f"{stats['tasks']:6d} {stats['executed']:9d} "
                    f"{stats['cache_hit_rate']:9.1%} "
                    f"{stats['evaluations_per_second']:8.2f}")
    rows.append(f"(smoke: {payload['candidates']} legal candidates, "
                f"{payload['rejected']} rejected up front; "
                f"trajectory in results/BENCH_dse.json)")
    return rows


def test_dse_throughput(benchmark):
    report("dse_throughput", once(benchmark, _experiment))
