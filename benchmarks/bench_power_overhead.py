"""Activity-counter overhead: the power model's counting must be free.

The four always-on :class:`repro.noc.stats.NetworkStats` activity
counters (``crossbar_traversals`` / ``buffer_reads`` / ``buffer_writes``
/ ``link_flit_hops`` — DESIGN.md §17) are counted on the hottest paths
of the cycle core, so their cost is bounded here in the regime where it
matters most: the saturated open-loop mesh on the default compiled
kernel, the fastest stepper and therefore the worst case for *relative*
overhead.

Enforcing the ``< 2%`` contract follows the same reasoning as
``bench_obs_overhead.py``: differencing two run-time distributions
cannot resolve a per-event cost of nanoseconds, and the counters have
no off switch to difference against anyway (always-on is the contract).
Instead the enforced number is deterministic and deliberately an
*upper bound* on what the shipped code executes:

* Kernel side.  The C kernel counts each unit with one integer
  increment of a local.  Each unit is priced at the measured cost of one
  iteration of the kernel's own cheapest per-element loop — the idle
  source-port scan of ``drain`` (two loads, two compares and the loop
  step per port, strictly more than one increment), timed as the
  difference between a large and a tiny idle mesh.
* Python-visible side.  Each kernel call adds its counts to the
  ``NetworkStats`` attributes: at most four attribute read-add-writes
  per ``sweep`` and one per ``drain``, so at most five per network per
  cycle.  Each is priced as one bare ``stats.<counter> += 1``, the same
  three operations plus interpreter dispatch.  No Python ``+=`` per
  unit remains on the default path.

Pricing every unit as a Python ``+= 1`` would charge the compiled
counting at the interpreter's rate, which overstates it by more than an
order of magnitude.

The saturated run is re-timed over ``REPRO_BENCH_REPS`` rounds (default
3) with up to ``REPRO_BENCH_EXTRA_REPS`` retry rounds (default 4) while
the floor is unmet — per-round minima only sharpen with more samples,
so retries converge to the clean-machine number instead of flaking on a
noise burst.  Writes ``benchmarks/results/BENCH_power.json``.
"""

from __future__ import annotations

import json
import os
import time

from common import RESULTS_DIR, SEED, once, report
from repro.core.builder import build, design_by_name, open_loop_variant
from repro.noc.openloop import OpenLoopRunner
from repro.noc.stats import NetworkStats
from repro.noc.topology import Mesh
from repro.noc.traffic import UniformManyToFew

BENCH_SCHEMA = 2
REPS = max(1, int(os.environ.get("REPRO_BENCH_REPS", "3")))
EXTRA_REPS = max(0, int(os.environ.get("REPRO_BENCH_EXTRA_REPS", "4")))
FLOOR_PCT = float(os.environ.get("REPRO_BENCH_POWER_FLOOR_PCT", "2.0"))
COST_LOOPS = 200_000
#: Idle meshes whose drain calls are differenced for the per-iteration
#: cost of the kernel's source-port scan, and the calls timed per round.
SCAN_MESHES = ((2, 2), (40, 40))
SCAN_CALLS = 20_000
#: Stats read-add-writes per network per cycle: four in ``sweep``, one
#: in ``drain``.
STAT_UPDATES_PER_CYCLE = 5

#: The saturated open-loop workload from ``bench_core_throughput``, where
#: per-cycle simulation work is at its cheapest relative to the flit
#: traffic being counted.
DESIGN = "TB-DOR"
MESH = (20, 20)
WARMUP, MEASURE = 300, 800
SATURATED_RATE = 0.30

COUNTERS = ("crossbar_traversals", "buffer_reads", "buffer_writes",
            "link_flit_hops")


def _increment_cost_ns() -> float:
    """Nanoseconds for one bare ``stats.<counter> += 1``.

    Min of 3 rounds over a real :class:`NetworkStats` instance, so a GC
    pause or scheduler preemption cannot inflate the enforced number.
    """
    stats = NetworkStats()
    rounds = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(COST_LOOPS):
            stats.crossbar_traversals += 1
        rounds.append((time.perf_counter() - start) / COST_LOOPS * 1e9)
    return min(rounds)


def _kernel_unit_cost_ns() -> float:
    """Nanoseconds per iteration of the kernel's idle source-port scan:
    the measured upper bound on one kernel-side counter increment.

    Min of 3 rounds per mesh; the difference between a large and a tiny
    idle mesh cancels the call overhead.
    """
    per_call = []
    ports = []
    for cols, rows in SCAN_MESHES:
        system = build(open_loop_variant(design_by_name(DESIGN)),
                       Mesh(cols, rows), num_mcs=1, seed=SEED)
        (net,) = system.networks
        core = net._batched
        if core is None:
            raise AssertionError("the compiled kernel is not available")
        ports.append(len(core.source_base))
        rounds = []
        for _ in range(3):
            start = time.perf_counter()
            for cycle in range(SCAN_CALLS):
                core.drain(cycle)
            rounds.append((time.perf_counter() - start) / SCAN_CALLS)
        per_call.append(min(rounds))
    return max(0.0, (per_call[1] - per_call[0])
               / (ports[1] - ports[0]) * 1e9)


def _saturated_run():
    """One saturated open-loop run on the default (compiled) core.

    Returns (wall seconds, total counter units, network-cycles, payload).
    """
    system = build(open_loop_variant(design_by_name(DESIGN)),
                   Mesh(*MESH), num_mcs=8, seed=SEED)
    runner = OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                            UniformManyToFew(system.mc_nodes),
                            SATURATED_RATE, seed=SEED)
    start = time.perf_counter()
    point = runner.run(warmup=WARMUP, measure=MEASURE)
    seconds = time.perf_counter() - start
    if any(net._batched is None for net in system.networks):
        raise AssertionError("the compiled kernel is not available")
    units = sum(getattr(net.stats, name) for net in system.networks
                for name in COUNTERS)
    net_cycles = sum(net.cycle for net in system.networks)
    return seconds, units, net_cycles, point.to_json()


def _experiment():
    cost_ns = _increment_cost_ns()
    kernel_ns = _kernel_unit_cost_ns()

    best_seconds = None
    units = None
    net_cycles = None
    golden = None
    reps = 0

    def one_round():
        nonlocal best_seconds, units, net_cycles, golden, reps
        seconds, round_units, round_cycles, payload = _saturated_run()
        if best_seconds is None or seconds < best_seconds:
            best_seconds = seconds
        if golden is None:
            golden, units, net_cycles = payload, round_units, round_cycles
        elif payload != golden or round_units != units:
            raise AssertionError(
                "saturated run is not deterministic across repetitions")
        reps += 1

    def priced_ns():
        return (units * kernel_ns
                + STAT_UPDATES_PER_CYCLE * net_cycles * cost_ns)

    def overhead_pct():
        return priced_ns() / (best_seconds * 1e9) * 100.0

    for _ in range(REPS):
        one_round()
    for _ in range(EXTRA_REPS):
        if overhead_pct() < FLOOR_PCT:
            break
        one_round()

    pct = round(overhead_pct(), 3)
    payload = {
        "schema": BENCH_SCHEMA,
        "workload": {"design": DESIGN, "mesh": list(MESH),
                     "rate": SATURATED_RATE, "warmup": WARMUP,
                     "measure": MEASURE, "stepper": "kernel"},
        "reps": reps,
        "floor_pct": FLOOR_PCT,
        "increment_cost_ns": round(cost_ns, 2),
        "kernel_unit_cost_ns": round(kernel_ns, 3),
        "counter_units": units,
        "network_cycles": net_cycles,
        "stat_updates_priced": STAT_UPDATES_PER_CYCLE * net_cycles,
        "best_run_seconds": round(best_seconds, 4),
        "overhead_pct_upper_bound": pct,
        "deterministic": True,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_power.json"
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")

    if pct >= FLOOR_PCT:
        raise AssertionError(
            f"activity counters price at {units} x {kernel_ns:.2f} ns + "
            f"{STAT_UPDATES_PER_CYCLE * net_cycles} x {cost_ns:.1f} ns = "
            f"{pct:.2f}% of a {best_seconds:.3f}s saturated run "
            f"(upper bound), over the {FLOOR_PCT}% floor after {reps} "
            "rounds")

    return [
        f"increment cost          {cost_ns:8.1f} ns per bare += 1 "
        "(measured directly, min of 3 rounds)",
        f"kernel unit cost        {kernel_ns:8.2f} ns per idle "
        "source-port scan step (bounds one C increment)",
        f"counter units           {units:8d} kernel increments priced",
        f"stats updates           {STAT_UPDATES_PER_CYCLE * net_cycles:8d} "
        "attribute adds priced as += 1 (5 per network-cycle)",
        f"saturated run (kernel)  {best_seconds:8.3f} s best of "
        f"{reps} rounds",
        f"counter overhead        {pct:+8.2f} % of saturated throughput "
        f"(upper bound; floor {FLOOR_PCT}%)",
        "(details in results/BENCH_power.json)",
    ]


def test_power_overhead(benchmark):
    report("power_overhead", once(benchmark, _experiment))


if __name__ == "__main__":
    # Plain-script entry for CI (no pytest-benchmark dependency).
    report("power_overhead", _experiment())
