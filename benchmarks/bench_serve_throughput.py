"""Job-server throughput: warm-cache hit latency, machine-readable.

Boots a :class:`repro.serve.ThreadedServer` on a fresh cache, submits a
pinned sweep workload cold (every point simulated), then re-submits it
repeatedly warm — every answer must come from the SHA-keyed result cache
without re-simulation and be bit-identical to the cold payload.  Writes
``benchmarks/results/BENCH_serve.json`` with the warm-hit latency
percentiles (p50/p90/p99 milliseconds, round-trip over a real socket)
and the warm submission throughput, so future PRs can compare the
serving overhead against this baseline.

Environment knobs (see ``common``): ``REPRO_BENCH_WARMUP`` /
``REPRO_BENCH_MEASURE`` shape the simulated window, ``REPRO_JOBS`` the
per-job ``run_tasks`` fan-out, ``REPRO_BENCH_SERVE_REPEATS`` the warm
sample count (default 50).
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from common import JOBS, MEASURE, RESULTS_DIR, WARMUP, once, report
from repro.serve import ServeClient, ServerConfig, ThreadedServer

BENCH_SCHEMA = 1
REPEATS = int(os.environ.get("REPRO_BENCH_SERVE_REPEATS", "50"))

SWEEP_JOB = {"kind": "sweep", "design": "CP-DOR",
             "rates": [0.005, 0.02, 0.04], "warmup": WARMUP,
             "measure": MEASURE}


def _percentile(sorted_values, p):
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[rank - 1]


def _experiment():
    with tempfile.TemporaryDirectory(prefix="serve-bench-cache-") as cache:
        config = ServerConfig(port=0, cache=cache, job_jobs=JOBS)
        with ThreadedServer(config) as server:
            host, port = server.address
            with ServeClient(host=host, port=port) as client:
                start = time.perf_counter()
                cold = client.submit(SWEEP_JOB)
                cold_seconds = time.perf_counter() - start

                latencies = []
                identical = 0
                executed_warm = 0
                for _ in range(REPEATS):
                    events = []
                    start = time.perf_counter()
                    warm = client.submit(SWEEP_JOB, events=events)
                    latencies.append(time.perf_counter() - start)
                    identical += warm == cold
                    executed_warm += events[-1]["stats"]["executed"]
                stats = client.stats()

    if identical != REPEATS:
        raise AssertionError(f"only {identical}/{REPEATS} warm results "
                             "were bit-identical to the cold payload")
    if executed_warm:
        raise AssertionError(f"warm submissions re-simulated "
                             f"{executed_warm} tasks; expected 0")

    latencies.sort()
    warm_ms = {f"p{p}": round(_percentile(latencies, p) * 1e3, 3)
               for p in (50, 90, 99)}
    warm_total = sum(latencies)
    payload = {
        "schema": BENCH_SCHEMA,
        "job": SWEEP_JOB,
        "jobs": JOBS,
        "repeats": REPEATS,
        "cold_seconds": round(cold_seconds, 3),
        "warm_hit_ms": warm_ms,
        "warm_submissions_per_second": (round(REPEATS / warm_total, 1)
                                        if warm_total > 0 else 0.0),
        "counters": stats["counters"],
        "cache": stats["cache"],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_serve.json"
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")

    return [
        f"cold submission        {cold_seconds:8.2f} s "
        f"({len(SWEEP_JOB['rates'])} sweep points simulated)",
        f"warm hit latency       p50 {warm_ms['p50']:7.2f} ms   "
        f"p90 {warm_ms['p90']:7.2f} ms   p99 {warm_ms['p99']:7.2f} ms",
        f"warm throughput        "
        f"{payload['warm_submissions_per_second']:8.1f} submissions/s "
        f"({REPEATS} repeats, all bit-identical, 0 re-simulated)",
        "(percentiles in results/BENCH_serve.json)",
    ]


def test_serve_throughput(benchmark):
    report("serve_throughput", once(benchmark, _experiment))
