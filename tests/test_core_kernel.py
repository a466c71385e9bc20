"""The compiled core cluster: its MT19937 and address streams against
``random.Random`` and ``SyntheticKernel``, that the default chip really
runs on it (telemetry included), export, the reference switch, reply
errors, import hygiene and the fallback when it cannot be built.
Cycle-by-cycle bit-identity with the Python cores is pinned by the
lockstep legs of tests/test_stepper_equivalence.py."""

import dataclasses
import gc
import json
import random
import weakref

import pytest

from repro.core.builder import design_by_name
from repro.gpu import cluster
from repro.gpu.cluster import CoreCluster
from repro.gpu.core import MemoryToken, SimtCore
from repro.noc.ideal import PerfectNetwork
from repro.noc.packet import read_reply
from repro.system.accelerator import build_chip
from repro.system.config import paper_config
from repro.telemetry import TelemetryHub, TelemetrySpec
from repro.workloads.generator import SyntheticKernel
from repro.workloads.profiles import PROFILES, profile

from .test_noc_kernel import _python

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1)


def _module():
    module = cluster.KERNEL.load()
    assert module is not None, "the core kernel did not build"
    return module


def _perfect_chip(abbr="MUM", ipw=4, seed=11):
    return build_chip(profile(abbr), network=PerfectNetwork(), seed=seed,
                      instructions_per_warp=ipw)


# -- the port --------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_mt19937_matches_random_draw_for_draw(seed):
    """``random()``, ``randrange`` (``_randbelow``, including powers of
    two, where it redraws most) and ``randint`` interleaved on one
    generator equal ``random.Random(seed)``'s draws."""
    ops, expected = [], []
    oracle, chooser = random.Random(seed), random.Random(7)
    for _ in range(2_000):
        op = chooser.randrange(3)
        if op == 0:
            ops.append((0,))
            expected.append(oracle.random())
        elif op == 1:
            n = chooser.choice((1, 2, 3, 8, 48, 1000, 2**16, 262_143,
                                2**31, 2**32 - 1))
            ops.append((1, n))
            expected.append(oracle.randrange(n))
        else:
            a = chooser.randrange(1, 20)
            b = a + chooser.randrange(40)
            ops.append((2, a, b))
            expected.append(oracle.randint(a, b))
    assert _module().mt_sample(seed, ops) == expected


@pytest.mark.parametrize("ipw", (None, 150))
def test_streams_match_synthetic_kernel(ipw):
    """For all 31 profiles, warps 0, 1 and the last warp of two cores
    draw the instructions ``SyntheticKernel.next_instruction`` draws:
    kind, line tuple and active threads, and the end of a finite
    stream."""
    module = _module()
    for prof in PROFILES:
        chip = build_chip(prof, network=PerfectNetwork(), seed=5,
                          instructions_per_warp=ipw)
        kernel = CoreCluster(module, chip._cores, chip.kernel)
        oracle = SyntheticKernel(prof, seed=5, instructions_per_warp=ipw)
        last = len(chip._cores[0].warps) - 1
        for index in (3, 17):
            coord = chip._cores[index].coord
            for warp in (0, 1, last):
                for step in range(210):
                    assert (kernel.next_instruction(index, warp)
                            == oracle.next_instruction(coord, warp)), (
                        prof.abbr, index, warp, step)


#: Machines and programs the paper's profiles do not reach: (profile
#: overrides, core overrides, MSHR merge limit, reuse window,
#: instructions per warp).
CORNER_CASES = (
    # merge-limit stalls behind divergent loads
    (dict(warps_per_core=8, divergence=8, mem_fraction=0.9), {}, 1, 48, 3),
    # a 512 B direct-mapped L1 and 2 MSHRs: dirty evictions, full files
    (dict(warps_per_core=3, divergence=1, store_fraction=0.7, reuse=0.5,
          footprint_lines=64), dict(l1_size_bytes=512, l1_associativity=1,
                                    mshr_entries=2), 32, 48, 20),
    # no reuse window, control divergence, 32-line instructions
    (dict(warps_per_core=8, divergence=32, simd_efficiency=0.3,
          footprint_lines=4), dict(l1_size_bytes=2048, l1_associativity=2),
     32, 0, 3),
    # a one-line reuse window over a one-line region
    (dict(warps_per_core=4, divergence=2, reuse=0.9, footprint_lines=1),
     dict(mshr_entries=8), 2, 1, 20),
)


@pytest.mark.parametrize("case", range(len(CORNER_CASES)))
def test_corner_machines_match_the_python_cores(case):
    """Lockstep to completion against the Python cores on machines and
    programs outside the paper's: every exported field agrees at every
    check and the results agree at the end."""
    prof_over, core_over, merged, window, ipw = CORNER_CASES[case]
    prof = dataclasses.replace(profile("MUM"), **prof_over)
    config = paper_config()
    config = dataclasses.replace(
        config, core=dataclasses.replace(config.core, **core_over))

    def state(chip):
        return [(core.retired_scalar, core.structural_stalls, core.wake,
                 core.scheduler._pointer, core.l1.hits, core.l1.misses,
                 core.mshrs.merges,
                 [(w.ready_at, w.pending_loads, w.retired, w.finished)
                  for w in core.warps],
                 [(line, [(w and w.warp_id, store)
                          for w, store in entry.waiters])
                  for line, entry in core.mshrs._entries.items()])
                for core in chip.cores]

    chips = []
    for reference in (True, False):
        chip = build_chip(prof, network=PerfectNetwork(), config=config,
                          seed=case, instructions_per_warp=ipw)
        chip.kernel.reuse_window = window
        for core in chip._cores:
            core.mshrs.max_merged = merged
        if reference:
            chip.use_reference_stepper()
        chips.append(chip)
    ref, fast = chips
    while not ref.finished:
        assert ref.icnt_cycle < 20_000, "kernel did not finish"
        ref.step()
        fast.step()
        assert fast.finished == ref.finished
        if ref.icnt_cycle % 50 == 0:
            assert state(fast) == state(ref), ref.icnt_cycle
    assert state(fast) == state(ref)
    assert isinstance(fast._cluster, CoreCluster)
    assert fast.run(0, 1).to_json() == ref.run(0, 1).to_json()


# -- the default path runs on the cluster -----------------------------------

def test_default_chip_never_runs_the_python_cores(monkeypatch):
    """With the kernel available, a chip steps, issues and takes replies
    without touching the Python core path: a silent fallback fails
    here."""
    _module()
    reference = _perfect_chip()
    reference.use_reference_stepper()
    expected = reference.run_to_completion().to_json()

    def forbidden(*args, **kwargs):
        raise AssertionError("Python core path ran")

    for owner, attr in ((SimtCore, "step"), (SimtCore, "on_reply"),
                        (SyntheticKernel, "next_instruction")):
        monkeypatch.setattr(owner, attr, forbidden)
    chip = _perfect_chip()
    assert chip._cluster is None, "started before the first step"
    assert chip.run_to_completion().to_json() == expected
    assert isinstance(chip._cluster, CoreCluster)


def test_telemetry_runs_the_cluster():
    """The instrumented step (profiling and sampling) runs the cluster
    too, with the same result as a plain run."""
    plain = _perfect_chip("RD", 6)
    expected = plain.run_to_completion().to_json()
    chip = _perfect_chip("RD", 6)
    hub = TelemetryHub(TelemetrySpec(sample_interval=20))
    hub.attach_chip(chip)
    assert chip.run_to_completion().to_json() == expected
    assert isinstance(chip._cluster, CoreCluster)
    assert hub.sampler.rows, "sampler saw no cycles"


# -- export and selection ----------------------------------------------------

def test_edit_after_export_is_what_the_audit_sees():
    chip = build_chip(profile("RD"), design=design_by_name("TB-DOR"),
                      seed=11)
    for _ in range(400):
        chip.step()
        if any(core.mshrs.issued_lines() for core in chip.cores):
            break
    assert isinstance(chip._cluster, CoreCluster)
    assert chip.audit() == []
    core = next(c for c in chip.cores if c.mshrs.issued_lines())
    line = core.mshrs.issued_lines()[0]
    del core.mshrs._entries[line]
    assert not chip._cluster.stale
    assert any("orphan in-flight request" in p for p in chip.audit())
    chip.step()                      # the cluster steps: the next read
    assert chip.audit() == []        # exports again


def test_reference_switch_raises_once_the_cluster_stepped():
    chip = build_chip(profile("BIN"), design=design_by_name("TB-DOR"),
                      seed=11, instructions_per_warp=8)
    chip.step()
    with pytest.raises(RuntimeError, match="cluster has stepped"):
        chip.use_reference_stepper()
    assert not chip._reference
    for net in chip.network.networks:
        assert net._batched is not None, "the network switched anyway"


def test_reply_without_an_mshr_entry_raises_and_writes_nothing():
    """As ``MshrFile.complete``: a KeyError, and the run continues
    exactly as if the reply had never come."""
    def run(bogus):
        chip = _perfect_chip("MUM", 6)
        for cycle in range(300):
            chip.step()
            if bogus and cycle == 60:
                core = chip._cores[2]
                token = MemoryToken(core.coord, 0xDEAD000, 0)
                packet = read_reply(chip.mc_coords[0], core.coord,
                                    payload=token)
                with pytest.raises(KeyError, match="line 0xdead000"):
                    chip._cluster.on_reply(2, packet, chip.icnt_cycle)
        snapshot = vars(chip._snapshot())
        snapshot["latency_hist"] = snapshot["latency_hist"].summary()
        return snapshot, [chip._cluster._c.export(i)
                          for i in range(len(chip._cores))]

    assert run(bogus=True) == run(bogus=False)


def test_dropped_chip_frees_its_cluster_at_once():
    """Nothing the chip owns refers back to it, and the network holds the
    cluster weakly, so a dropped chip and its kernel state go without
    waiting for the cycle collector."""
    gc.disable()
    try:
        chip = build_chip(profile("RD"), design=design_by_name("TB-DOR"),
                          seed=11)
        chip.run(warmup=20, measure=20)
        refs = weakref.ref(chip), weakref.ref(chip._cluster)
        del chip
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# -- build and import ---------------------------------------------------------

def test_import_and_construction_load_no_kernel():
    """``import repro`` neither loads nor compiles either kernel, and a
    chip loads the core kernel only at its first step."""
    out = _python("""
        import sys
        import repro
        from repro.gpu import cluster
        from repro.noc import batched
        from repro.noc.ideal import PerfectNetwork
        from repro.system.accelerator import build_chip
        from repro.workloads.profiles import profile
        loaded = lambda: (sorted(m for m in ("setuptools", "_noc_kernel",
                                             "_core_kernel")
                                 if m in sys.modules),
                          batched.KERNEL.loaded, cluster.KERNEL.loaded)
        print(loaded())
        chip = build_chip(profile("BIN"), network=PerfectNetwork())
        print(loaded())
        chip.step()
        print(loaded())
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "([], False, False)", "([], False, False)",
        "(['_core_kernel'], False, True)"]


def test_failing_build_runs_the_python_cores(tmp_path):
    """With a compiler that always fails, chips run the Python cores with
    the cluster's results, and the failure is logged once."""
    out = _python(f"""
        import json
        from pathlib import Path
        from repro.gpu import cluster
        from repro.noc.ideal import PerfectNetwork
        from repro.system.accelerator import build_chip
        from repro.workloads.profiles import profile
        cluster.KERNEL.cache_dirs = lambda: [Path({str(tmp_path)!r})]
        results = []
        for _ in range(2):
            chip = build_chip(profile("MUM"), network=PerfectNetwork(),
                              seed=11, instructions_per_warp=4)
            results.append(chip.run_to_completion().to_json())
            assert chip._cluster is False
        print(json.dumps(results))
    """, env={"CC": "false"})
    assert out.returncode == 0, out.stderr
    first, second = json.loads(out.stdout.splitlines()[-1])
    warnings = [line for line in out.stderr.splitlines()
                if "compiled core kernel unavailable" in line]
    assert len(warnings) == 1, out.stderr
    chip = _perfect_chip()
    assert first == second == chip.run_to_completion().to_json()
    assert isinstance(chip._cluster, CoreCluster)
