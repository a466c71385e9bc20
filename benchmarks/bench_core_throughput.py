"""Cycle-core throughput: reference scan vs the default compiled kernels.

Times the same pinned workloads under both cycle cores — the reference
exhaustive scan (``use_reference_stepper``: every core, MC and occupied
router stepped every cycle, in Python) and the default (the compiled
chip side, one kernel call per cycle for every SIMT core and one for
every MC and DRAM channel, around networks stepped by the compiled NoC
kernel, at most two kernel calls per network per cycle, or by a third
chip-side call on an ideal network) — and writes
``benchmarks/results/BENCH_core.json`` with per-mode cycles-per-second
and flits-per-second plus the default's speedup over the reference:

* ``closed_loop_smoke`` — a finite BIN kernel on TB-DOR whose drained tail
  exercises the idle fast paths (cores finished, MCs idle, networks empty).
  The default must be at least 2x the reference here.
* ``open_loop_light`` — 20x20 mesh at a light injection rate (informational;
  most routers idle).
* ``open_loop_saturated`` — the same mesh driven past saturation, where the
  scan is genuinely busy: every router holds flits, but most are blocked
  upstream of the MC hot links.  The default must be at least 3x the
  reference here.
* ``closed_loop_perfect`` — MUM on the perfect network: no mesh, so all
  the work is the chip side.  MUM's divergent loads keep the MSHR files
  full and the DRAM queues deep, so the memory kernel's DRAM wake gate
  and the cluster's issue-retry memo both act.  Its ``kernel`` mode is
  the default chip loop on the compiled chip side: core cluster, memory
  side and the perfect network, three kernel calls a cycle and no
  Python packet.  The default must be at least 9.8x the reference here
  (about 14-15x measured), so a chip whose network silently stays in
  Python (5.5x, its per-packet records and packets in Python) or whose
  memory side or cores do (about 2.9x with only the cores compiled)
  fails.
* ``cold_start`` — one CP-CR-4VC point at the DSE screen rate (0.35,
  6x6 mesh, 200/600) on the default core, built and run in a fresh
  interpreter, where the process-wide route table starts empty, and then
  again in that interpreter on the filled table (informational).  The
  four rows above run many points per process, so their default times
  are warm-table times; this row shows what the first point pays.

ROADMAP item 3 holds a 10x target on the saturated 20x20 mesh and on the
closed-loop smoke; each of those entries records its ratio against
that target (informational — the enforced floors are the measured ones
above).

Both steppers must also produce bit-identical results (the determinism
contract pinned by ``tests/test_stepper_equivalence.py``), so the bench
doubles as a determinism canary.  Host timing on shared runners is noisy,
so each mode runs ``REPRO_BENCH_REPS`` times (default 3), interleaved,
and the per-mode minimum is compared — the minimum of a deterministic
workload is the stable estimator under scheduler noise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from common import RESULTS_DIR, SEED, once, report
from repro.core.builder import build, design_by_name, open_loop_variant
from repro.noc.ideal import PerfectNetwork
from repro.noc.openloop import OpenLoopRunner
from repro.noc.topology import Mesh
from repro.noc.traffic import UniformManyToFew
from repro.system.accelerator import build_chip
from repro.workloads.profiles import profile

BENCH_SCHEMA = 4
REPS = max(1, int(os.environ.get("REPRO_BENCH_REPS", "3")))

#: Measurement order within one interleaved round.  ``reference`` first so
#: the default compares against a same-round baseline sample.
MODES = ("reference", "kernel")

# Closed loop: finite kernel, measured to well past its drained tail.
CLOSED_PROFILE = "BIN"
CLOSED_DESIGN = "TB-DOR"
CLOSED_IPW = 16
CLOSED_WARMUP, CLOSED_MEASURE = 200, 4800
CLOSED_FLOORS = {"kernel": 2.0}

# Closed loop on the perfect network: the paper-default (infinite) kernel
# over the benchmarks' 400/800 window.
PERFECT_PROFILE = "MUM"
PERFECT_WARMUP, PERFECT_MEASURE = 400, 800
PERFECT_FLOORS = {"kernel": 9.8}

# Open loop: a mesh large enough that saturation leaves most routers
# blocked (occupied but unable to grant) rather than actively draining —
# with 8 MCs on 16x16, the ejection hot links cap per-node throughput at
# ~0.03 flits/cycle, so rate 0.30 is deep saturation and 0.01 is light.
OPEN_DESIGN = "TB-DOR"
OPEN_MESH = (20, 20)
OPEN_WARMUP, OPEN_MEASURE = 300, 800
LIGHT_RATE = 0.01
SATURATED_RATE = 0.30
SATURATED_FLOORS = {"kernel": 3.0}
#: ROADMAP item 3's target for the compiled kernel (recorded, not enforced).
TARGET = 10.0
TARGETED = ("closed_loop_smoke", "open_loop_saturated")
# Cold start: the first point of a fresh interpreter, then the same point
# again in it.
COLD_DESIGN = "CP-CR-4VC"
COLD_RATE = 0.35
COLD_WARMUP, COLD_MEASURE = 200, 600
_COLD_SCRIPT = """
import json, sys, time
from repro.core.builder import build, design_by_name, open_loop_variant
from repro.noc.openloop import OpenLoopRunner
from repro.noc.traffic import UniformManyToFew
design, rate, warmup, measure, seed = json.loads(sys.argv[1])

def point():
    start = time.perf_counter()
    system = build(open_loop_variant(design_by_name(design)), None,
                   num_mcs=8, seed=seed)
    runner = OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                            UniformManyToFew(system.mc_nodes), rate,
                            seed=seed)
    payload = runner.run(warmup=warmup, measure=measure).to_json()
    return time.perf_counter() - start, payload

cold, first = point()
warm, second = point()
assert first == second, "the filled table changed the result"
print(json.dumps({"cold": cold, "warm": warm}))
"""

#: Extra interleaved rep rounds allowed when a floor check lands short —
#: per-mode minima only sharpen with more samples, so retries converge
#: to the clean-machine ratio instead of flaking on a noise burst.
EXTRA_REPS = max(0, int(os.environ.get("REPRO_BENCH_EXTRA_REPS", "4")))


def _flits_ejected(network) -> int:
    return sum(net.stats.flits_ejected
               for net in getattr(network, "networks", [network]))


def _select_stepper(system, mode: str) -> None:
    if mode == "reference":
        system.use_reference_stepper()
    elif mode != "kernel":              # the construction-time default
        raise ValueError(f"unknown stepper mode {mode!r}")


def _chip_run(mode: str, abbr: str, warmup: int, measure: int, **where):
    chip = build_chip(profile(abbr), seed=SEED, **where)
    _select_stepper(chip, mode)
    start = time.perf_counter()
    result = chip.run(warmup=warmup, measure=measure)
    seconds = time.perf_counter() - start
    return seconds, chip.icnt_cycle, _flits_ejected(chip.network), \
        result.to_json()


def _open_run(rate: float, mode: str):
    system = build(open_loop_variant(design_by_name(OPEN_DESIGN)),
                   Mesh(*OPEN_MESH), num_mcs=8, seed=SEED)
    _select_stepper(system, mode)
    runner = OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                            UniformManyToFew(system.mc_nodes), rate,
                            seed=SEED)
    start = time.perf_counter()
    point = runner.run(warmup=OPEN_WARMUP, measure=OPEN_MEASURE)
    seconds = time.perf_counter() - start
    return seconds, OPEN_WARMUP + OPEN_MEASURE, _flits_ejected(system), \
        point.to_json()


def _measure(name: str, run, floors):
    """Interleave ``REPS`` rounds over both modes; compare per-mode
    minima against the reference minimum.

    Also asserts the determinism contract: every rep of every mode must
    produce the same result payload, and every mode's payload must equal
    the reference payload bit for bit.
    """
    best = {}
    payloads = {}

    def one_round():
        for mode in MODES:
            seconds, cycles, flits, payload = run(mode)
            if mode not in best or seconds < best[mode][0]:
                best[mode] = (seconds, cycles, flits)
            expected = payloads.setdefault(mode, payload)
            if payload != expected:
                raise AssertionError(
                    f"{name}: {mode} stepper is not deterministic "
                    "across repetitions")

    def floors_met():
        ref = best["reference"][0]
        return all(ref / best[mode][0] >= floor
                   for mode, floor in floors.items())

    reps = REPS
    for _ in range(REPS):
        one_round()
    for _ in range(EXTRA_REPS):
        if floors_met():
            break
        one_round()
        reps += 1
    for mode in MODES:
        if payloads[mode] != payloads["reference"]:
            raise AssertionError(
                f"{name}: {mode} result differs from the reference "
                "exhaustive scan")

    def stats(mode):
        seconds, cycles, flits = best[mode]
        return {
            "best_seconds": round(seconds, 4),
            "cycles": cycles,
            "flits_ejected": flits,
            "cycles_per_second": round(cycles / seconds, 1),
            "flits_per_second": round(flits / seconds, 1),
        }

    ref_seconds = best["reference"][0]
    entry = {
        "reps": reps,
        "modes": {mode: stats(mode) for mode in MODES},
        "speedup": {mode: round(ref_seconds / best[mode][0], 3)
                    for mode in MODES if mode != "reference"},
        "identical": True,
    }
    if floors:
        entry["floors"] = floors
        for mode, floor in floors.items():
            if entry["speedup"][mode] < floor:
                raise AssertionError(
                    f"{name}: {mode} core speedup "
                    f"{entry['speedup'][mode]}x is below the {floor}x "
                    f"floor (reference {ref_seconds}s vs {mode} "
                    f"{best[mode][0]}s over {reps} interleaved rounds)")
    return entry


def _cold_start():
    """Best-of-``REPS`` cold and warm times of the cold-start point, each
    rep in a fresh interpreter on this checkout's sources."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = json.dumps([COLD_DESIGN, COLD_RATE, COLD_WARMUP, COLD_MEASURE,
                       SEED])
    runs = []
    for _ in range(REPS):
        out = subprocess.run([sys.executable, "-c", _COLD_SCRIPT, args],
                             env=env, capture_output=True, text=True,
                             timeout=600, check=True)
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    cold = min(run["cold"] for run in runs)
    warm = min(run["warm"] for run in runs)
    return {"reps": REPS, "cold_best_seconds": round(cold, 4),
            "warm_best_seconds": round(warm, 4),
            "cold_over_warm": round(cold / warm, 3)}


def _experiment():
    configs = {
        "closed_loop_smoke": _measure(
            "closed_loop_smoke",
            lambda mode: _chip_run(
                mode, CLOSED_PROFILE, CLOSED_WARMUP, CLOSED_MEASURE,
                design=design_by_name(CLOSED_DESIGN),
                instructions_per_warp=CLOSED_IPW),
            CLOSED_FLOORS),
        "open_loop_light": _measure(
            "open_loop_light",
            lambda mode: _open_run(LIGHT_RATE, mode), {}),
        "open_loop_saturated": _measure(
            "open_loop_saturated",
            lambda mode: _open_run(SATURATED_RATE, mode),
            SATURATED_FLOORS),
        "closed_loop_perfect": _measure(
            "closed_loop_perfect",
            lambda mode: _chip_run(mode, PERFECT_PROFILE, PERFECT_WARMUP,
                                   PERFECT_MEASURE, network=PerfectNetwork()),
            PERFECT_FLOORS),
    }
    for name in TARGETED:
        entry = configs[name]
        entry["target"] = TARGET
        entry["meets_target"] = entry["speedup"]["kernel"] >= TARGET
    cold_start = _cold_start()
    payload = {
        "schema": BENCH_SCHEMA,
        "reps": REPS,
        "workloads": {
            "closed_loop_smoke": {
                "profile": CLOSED_PROFILE, "design": CLOSED_DESIGN,
                "instructions_per_warp": CLOSED_IPW,
                "warmup": CLOSED_WARMUP, "measure": CLOSED_MEASURE,
            },
            "open_loop_light": {
                "design": OPEN_DESIGN, "mesh": list(OPEN_MESH),
                "rate": LIGHT_RATE,
                "warmup": OPEN_WARMUP, "measure": OPEN_MEASURE,
            },
            "open_loop_saturated": {
                "design": OPEN_DESIGN, "mesh": list(OPEN_MESH),
                "rate": SATURATED_RATE,
                "warmup": OPEN_WARMUP, "measure": OPEN_MEASURE,
            },
            "closed_loop_perfect": {
                "profile": PERFECT_PROFILE, "network": "perfect",
                "warmup": PERFECT_WARMUP, "measure": PERFECT_MEASURE,
            },
            "cold_start": {
                "design": COLD_DESIGN, "mesh": [6, 6], "rate": COLD_RATE,
                "warmup": COLD_WARMUP, "measure": COLD_MEASURE,
            },
        },
        "configs": configs,
        "cold_start": cold_start,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_core.json"
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")

    rows = [
        f"{'config':22s} {'ref s':>8s} {'kern s':>8s} {'kern x':>8s} "
        f"{'floor':>7s} {'target':>7s}",
    ]
    for name, entry in configs.items():
        modes = entry["modes"]
        floors = entry.get("floors", {})
        floor_text = (f"{floors['kernel']:.1f}x" if "kernel" in floors
                      else "-")
        target_text = (f"{entry['target']:.0f}x" if "target" in entry
                       else "-")
        rows.append(
            f"{name:22s} {modes['reference']['best_seconds']:8.2f} "
            f"{modes['kernel']['best_seconds']:8.2f} "
            f"{entry['speedup']['kernel']:7.2f}x "
            f"{floor_text:>7s} {target_text:>7s}")
    rows.append(f"(min over {REPS}+ interleaved rounds per mode; both "
                "steppers bit-identical; target = ROADMAP item 3, "
                "recorded only; details in results/BENCH_core.json)")
    rows.append(f"cold_start: {COLD_DESIGN} @ {COLD_RATE} "
                f"({COLD_WARMUP}/{COLD_MEASURE}) in a fresh interpreter "
                f"{cold_start['cold_best_seconds']:.2f} s, again on its "
                f"filled route table {cold_start['warm_best_seconds']:.2f} s "
                f"(min over {REPS} interpreters; informational)")
    return rows


def test_core_throughput(benchmark):
    report("core_throughput", once(benchmark, _experiment))


if __name__ == "__main__":
    # Plain-script entry for CI (no pytest-benchmark dependency).
    report("core_throughput", _experiment())
