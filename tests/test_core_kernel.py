"""The compiled chip side: the core cluster's MT19937 and address streams
against ``random.Random`` and ``SyntheticKernel``, corner machines of
the cores and of the memory side in lockstep with the Python ones, that
the default chip really runs on both (telemetry included) and, on the
perfect network, on its compiled network, which networks are taken
over, export, the reference switch, dropped chips, reply and request
errors, callbacks that raise or re-enter, import hygiene and the
fallback when it cannot be built.
Cycle-by-cycle bit-identity on the paper's machine is pinned by the
lockstep legs of tests/test_stepper_equivalence.py."""

import dataclasses
import gc
import json
import random
import weakref
from functools import partial

import pytest

from repro.core.builder import design_by_name
from repro.gpu import cluster
from repro.gpu.cluster import CoreCluster
from repro.gpu.core import MemoryToken, SimtCore
from repro.mem import nodes
from repro.mem.controller import MemoryController
from repro.mem.dram import GddrChannel
from repro.mem.nodes import MemoryNodes
from repro.noc.ideal import PerfectNetwork
from repro.noc.packet import read_reply, read_request
from repro.noc.stats import NetworkStats
from repro.system.accelerator import build_chip
from repro.system.config import paper_config, scaled_config
from repro.telemetry import TelemetryHub, TelemetrySpec
from repro.workloads.generator import SyntheticKernel
from repro.workloads.profiles import PROFILES, profile

from .test_noc_kernel import _python
from .test_stepper_equivalence import _lockstep_to_completion

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


def _backlog_corner(seen, chip):
    for mc in chip.mcs:
        done = mc.reads + mc.writes
        seen["gated"] = seen.get("gated", False) or mc.gated
        seen["most"] = max(seen.get("most", 0),
                           done - seen.get(mc.coord, 0))
        seen[mc.coord] = done


def _backlog_reached(seen, chip):
    # gated behind a one-reply backlog, and two requests in one cycle
    return seen["gated"] and seen["most"] == 2


def _writeback_corner(seen, chip):
    seen["waits"] = seen.get("waits", 0) + sum(
        1 for mc in chip.mcs
        if mc._writebacks and not mc.dram.can_accept())


def _writeback_reached(seen, chip):
    return seen["waits"] > 0


def _reprobe_reached(seen, chip):
    # every read probes the L2 once unless it re-probes behind a full
    # DRAM queue; more row misses than banks means bank conflicts
    return all(mc.l2.accesses > mc.reads
               and mc.dram.row_misses > mc.dram.timing.num_banks
               for mc in chip.mcs)


def _latency_corner(seen, chip):
    for mc in chip.mcs:
        for ready, packet in mc._input:
            seen["latency"] = seen.get("latency", set()) | {
                ready - packet.ejected}


def _latency_reached(seen, chip):
    # every request waited one cycle between ejection and its L2 lookup
    return seen["latency"] == {1}


def _activate_corner(seen, chip):
    gaps = seen.setdefault("gaps", set())
    for mc in chip.mcs:
        for index, bank in enumerate(mc.dram._banks):
            last = seen.get((mc.coord, index))
            if last is not None and last >= 0 \
                    and bank.last_activate != last:
                gaps.add(bank.last_activate - last)
            seen[(mc.coord, index)] = bank.last_activate


def _activate_reached(seen, chip):
    # a same-bank activate waited tRAS + tRP, longer than tRC: at Table
    # II's timings the two are equal, so tRC alone hides a missing tRAS
    t = chip.mcs[0].dram.timing
    return t.tRAS + t.tRP > t.tRC and t.tRAS + t.tRP in seen["gaps"]


#: Memory machines Table II does not reach: McConfig overrides,
#: DramTiming overrides, profile overrides, a per-cycle observer of the
#: reference chip and the check that the run reached its corner.
MEMORY_CORNERS = {
    "backlog-1-two-per-cycle": (
        dict(reply_backlog_limit=1, requests_per_cycle=2), {},
        dict(warps_per_core=12), _backlog_corner, _backlog_reached),
    "direct-mapped-4k-l2-stores": (
        dict(l2_size_bytes=4096, l2_associativity=1), {},
        dict(store_fraction=0.7, reuse=0.0), _writeback_corner,
        _writeback_reached),
    "two-banks-queue-2": (
        {}, dict(queue_capacity=2, num_banks=2, row_bytes=256),
        dict(warps_per_core=12), None, _reprobe_reached),
    "l2-latency-1": (
        dict(l2_latency=1), {}, dict(warps_per_core=12), _latency_corner,
        _latency_reached),
    "tras-30": (
        {}, dict(tRAS=30), dict(warps_per_core=12), _activate_corner,
        _activate_reached),
}


@pytest.mark.parametrize("where", ("TB-DOR", "perfect"))
@pytest.mark.parametrize("corner", sorted(MEMORY_CORNERS))
def test_memory_corner_machines_match_the_python_mcs(corner, where):
    """Lockstep to completion against the Python MCs and channels on
    memory machines outside the paper's, every MC and channel field
    compared at every check (``_chip_counters``; the network's own state
    is left to tests/test_stepper_equivalence.py), and each run shows it
    reached its corner."""
    mc_over, dram_over, prof_over, observer, reached = MEMORY_CORNERS[corner]
    config = paper_config()
    config = dataclasses.replace(config, mc=dataclasses.replace(
        config.mc, dram=dataclasses.replace(config.mc.dram, **dram_over),
        **mc_over))
    prof = dataclasses.replace(profile("MUM"), **prof_over)
    seen = {}

    def make_chip(reference):
        chip = build_chip(
            prof, config=config, seed=11, instructions_per_warp=3,
            **({"network": PerfectNetwork()} if where == "perfect"
               else {"design": design_by_name(where)}))
        # The Python cores and MCs, on the same compiled network.
        chip._reference = reference
        return chip

    ref, _ = _lockstep_to_completion(
        make_chip, 20_000, mesh=False,
        observe=observer and (lambda chip: observer(seen, chip)))
    assert reached(seen, ref), seen


@pytest.mark.parametrize("cores, mcs", ((24, 12), (30, 6)))
def test_any_mc_count_matches_the_python_mcs(cores, mcs):
    """Nothing in the memory kernel assumes Table II's 8 MCs."""
    config = scaled_config(cores, mcs, 6, 6)

    def make_chip(reference):
        chip = build_chip(profile("RD"), network=PerfectNetwork(),
                          config=config, seed=5, instructions_per_warp=3)
        chip._reference = reference
        return chip

    ref, _ = _lockstep_to_completion(make_chip, 20_000, mesh=False)
    assert len(ref.mcs) == mcs


# -- the default path runs on the cluster -----------------------------------

def test_default_chip_never_runs_the_python_cores(monkeypatch):
    """With the kernel available, a chip on the perfect network steps,
    issues, moves its packets and takes replies without touching the
    Python core, memory or network path, and builds no packet: a silent
    fallback fails here."""
    _module()
    reference = _perfect_chip()
    reference.use_reference_stepper()
    expected = reference.run_to_completion().to_json()

    def forbidden(*args, **kwargs):
        raise AssertionError("Python core path ran")

    for owner, attr in ((SimtCore, "step"), (SimtCore, "on_reply"),
                        (SimtCore, "_send_read_request"),
                        (SimtCore, "_send_write_request"),
                        (SyntheticKernel, "next_instruction"),
                        (MemoryController, "icnt_step"),
                        (MemoryController, "on_packet"),
                        (MemoryController, "_dram_done"),
                        (GddrChannel, "step"),
                        (PerfectNetwork, "try_inject"),
                        (PerfectNetwork, "step"),
                        (NetworkStats, "record_injection"),
                        (NetworkStats, "record_ejection"),
                        (nodes, "_reply")):
        monkeypatch.setattr(owner, attr, forbidden)
    chip = _perfect_chip()
    assert chip._cluster is None, "started before the first step"
    assert chip._memory is None, "started before the first step"
    assert chip.run_to_completion().to_json() == expected
    assert isinstance(chip._cluster, CoreCluster)
    assert isinstance(chip._memory, MemoryNodes)
    assert chip.network._kernel is not None


def test_telemetry_runs_the_cluster():
    """A chip with telemetry attached (profiling and sampling) runs the
    cluster too, with the same result as a plain run."""
    plain = _perfect_chip("RD", 6)
    expected = plain.run_to_completion().to_json()
    chip = _perfect_chip("RD", 6)
    hub = TelemetryHub(TelemetrySpec(sample_interval=20))
    hub.attach_chip(chip)
    assert chip.run_to_completion().to_json() == expected
    assert isinstance(chip._cluster, CoreCluster)
    assert isinstance(chip._memory, MemoryNodes)
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
    # The same for the memory side: a reply dropped from an exported
    # backlog is missing from what the audit sees, until the next step.
    for _ in range(400):
        if any(mc._replies for mc in chip.mcs):
            break
        chip.step()
    mc = next(mc for mc in chip.mcs if mc._replies)
    mc._replies.popleft()
    assert not chip._memory.stale
    assert any("request conservation broken" in p for p in chip.audit())
    chip.step()
    assert chip._memory.stale
    assert chip.audit() == []


class _OwnPerfectNetwork(PerfectNetwork):
    """A subclass may change the network's behaviour, so the kernel does
    not take it over."""


def test_only_a_fresh_ideal_network_is_compiled():
    """The chip side takes over an ideal network of exactly its class that
    is unused and unclaimed.  A network another chip has claimed, or one
    used before, runs the reference chip; a subclass keeps its Python
    network beside the compiled cores and MCs.  Each equals the
    reference on the same network."""
    def run(network, reference):
        chip = build_chip(profile("RD"), network=network, seed=11,
                          instructions_per_warp=4)
        chip._reference = reference
        return chip, chip.run_to_completion().to_json()

    def used():
        network = PerfectNetwork()
        network.step(1)
        return network

    claimed = PerfectNetwork()
    first, _ = run(claimed, False)
    assert first.network._kernel is not None
    second, _ = run(claimed, False)
    assert second._cluster is False
    assert claimed._kernel is first.network._kernel
    chip, result = run(used(), False)
    assert chip._cluster is False
    assert result == run(used(), True)[1]
    chip, result = run(_OwnPerfectNetwork(), False)
    assert isinstance(chip._cluster, CoreCluster)
    assert chip.network._kernel is None
    assert result == run(_OwnPerfectNetwork(), True)[1]


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


def _drop_chip(**where):
    """Run an RD chip briefly and drop it: whether the chip, its MC 0, its
    cluster and its memory side (wrapper and kernel object) are still
    alive, and the chip's network."""
    chip = build_chip(profile("RD"), seed=11, **where)
    chip.run(warmup=20, measure=20)
    chip.step()
    refs = (weakref.ref(chip), weakref.ref(chip._mcs[0]),
            weakref.ref(chip._cluster), weakref.ref(chip._memory),
            weakref.ref(chip._memory._c))
    network = chip.network
    del chip
    return [ref() is not None for ref in refs], network


def test_dropped_chip_frees_its_cluster_at_once():
    """Nothing the chip owns refers back to it, the MCs' DRAM channels
    return their completions instead of calling back, and the network
    holds the cluster and the memory side weakly, so a dropped chip, its
    MCs and its kernel state go without waiting for the cycle
    collector."""
    gc.disable()
    try:
        alive, _ = _drop_chip(design=design_by_name("TB-DOR"))
        assert alive == [False] * 5
    finally:
        gc.enable()


@pytest.mark.parametrize("where", ("TB-DOR", "perfect"))
def test_dropped_reference_chip_frees_its_mcs_at_once(where):
    """On the reference chip too: the network holds each MC weakly (the
    MC holds the network, through ``inject``), so dropping the chip with
    its network frees the chip, its MC 0 and, on a perfect network
    (which has no cycle of its own), the network."""
    gc.disable()
    try:
        chip = build_chip(profile("RD"), seed=11, **(
            {"network": PerfectNetwork()} if where == "perfect"
            else {"design": design_by_name(where)}))
        network = chip.network
        chip.use_reference_stepper()
        chip.run(warmup=20, measure=20)
        assert chip._cluster is None and chip.network.stats.flits_ejected
        refs = [weakref.ref(chip), weakref.ref(chip._mcs[0])]
        if where == "perfect":
            refs.append(weakref.ref(network))
        del chip, network
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_dropped_perfect_chip_frees_its_kernels_at_once():
    """A compiled perfect network holds the chip's cluster and memory side
    by pointers the kernel clears, so they go with the chip too; the
    network, which outlives it, keeps its counters and refuses to
    step."""
    gc.disable()
    try:
        alive, network = _drop_chip(network=PerfectNetwork())
        assert alive == [False] * 5
        assert network.stats.cycles == 41
        assert network.stats.flits_ejected > 0
        with pytest.raises(RuntimeError, match="chip .* was freed"):
            network._kernel.step(42)
    finally:
        gc.enable()


def _memory_chip(inject=None):
    """A MUM chip on TB-DOR whose MC 0 offers its replies through
    ``inject(network, packet, cycle)``, if given: on a mesh the memory
    side still calls the MCs' inject, the reply factory and, through the
    request handlers, ``request`` (on the perfect network the kernel
    steps the network itself and calls none of them)."""
    chip = build_chip(profile("MUM"), design=design_by_name("TB-DOR"),
                      seed=11, instructions_per_warp=6)
    if inject is not None:
        chip._mcs[0].inject = partial(inject, chip.network)
    return chip


def _step_until(chip, ready):
    for _ in range(2_000):
        chip.step()
        if ready(chip):
            return
    raise AssertionError("state not reached")


def test_raising_inject_leaves_its_reply_queued():
    armed = []

    def inject(network, packet, cycle):
        if armed:
            raise RuntimeError("inject failed")
        return network.try_inject(packet, cycle)

    chip = _memory_chip(inject)
    _step_until(chip, lambda chip: chip.mcs[0]._replies)
    mc = chip.mcs[0]
    head, sent = mc._replies[0], mc.replies_sent
    armed.append(True)
    with pytest.raises(RuntimeError, match="inject failed"):
        chip.step()
    mc = chip.mcs[0]
    assert mc._replies[0] is head and mc.replies_sent == sent
    armed.clear()
    chip.step()
    mc = chip.mcs[0]
    assert head not in mc._replies and mc.replies_sent > sent


def test_raising_reply_factory_leaves_its_request_queued(monkeypatch):
    """A reply is built before anything changes for its request, so a
    raising factory leaves the request where it was (here in flight at
    its channel, MUM's L2 hardly hitting), and the run goes on."""
    build, armed, failed = nodes._reply, [], []

    def factory(coord, request, cycle):
        if armed and not failed:
            failed.append(request)
            raise RuntimeError("factory failed")
        return build(coord, request, cycle)

    monkeypatch.setattr(nodes, "_reply", factory)
    chip = _memory_chip()
    _step_until(chip, lambda chip: chip.icnt_cycle >= 100)
    armed.append(True)
    with pytest.raises(RuntimeError, match="factory failed"):
        for _ in range(500):
            chip.step()
    request, = failed
    assert any(r.payload is request
               for mc in chip.mcs for r in mc.dram.outstanding_requests())
    chip.run_to_completion()
    assert chip.audit() == []


def test_malformed_request_queues_nothing():
    """The request handler checks the packet before anything is queued:
    a non-request packet, or a payload without an in-range int
    ``local_addr``, raises and leaves the MC as it was.  So does the
    reference, whose handler is the MC's own ``on_packet`` (through a
    weak reference to the MC)."""
    compiled, reference = _memory_chip(), _memory_chip()
    reference.use_reference_stepper()
    core = compiled._cores[0].node
    token = MemoryToken(compiled._cores[0].coord, 0x4000, 0x400)
    for chip in (compiled, reference):
        chip.run(warmup=0, measure=30)
        mc = chip.mcs[1]
        handler = chip.network.networks[0]._handlers[mc.node]
        assert (handler.args[0]() is mc) is (chip is reference)

        def state():
            mc = chip.mcs[1]
            return mc.requests_received, mc.max_queue_depth, list(mc._input)

        before = state()
        with pytest.raises(ValueError, match="non-request"):
            handler(read_reply(mc.node, core, payload=token),
                    chip.icnt_cycle)
        for payload in (object(), MemoryToken(core, 0x4000, None),
                        MemoryToken(core, 0x4000, -64),
                        MemoryToken(core, 0x4000, 2**62),
                        MemoryToken(core, 0x4000, 2**70),
                        MemoryToken(core, 0x4000, 64.0)):
            with pytest.raises(ValueError, match="local_addr"):
                handler(read_request(core, mc.node, payload=payload),
                        chip.icnt_cycle)
        assert state() == before
    with pytest.raises(IndexError):
        compiled._memory._c.request(len(compiled.mcs), read_request(
            core, compiled.mcs[1].node, payload=token), compiled.icnt_cycle)


@pytest.mark.parametrize("call", ("step", "request", "export"))
def test_kernel_refuses_reentry(call):
    """A callback that calls back into the memory side gets a
    RuntimeError, which propagates with the reply still queued."""
    def inject(network, packet, cycle):
        memory = memory_ref()
        if call == "step":
            memory.step(cycle, 1, 1)
        elif call == "request":
            memory.request(0, packet, cycle)
        else:
            memory.export()
        return network.try_inject(packet, cycle)

    chip = _memory_chip(inject)
    chip.step()
    memory_ref = weakref.ref(chip._memory._c)
    with pytest.raises(RuntimeError, match="re-entered"):
        for _ in range(2_000):
            chip.step()
    mc = chip.mcs[0]
    assert mc._replies and mc.replies_sent == 0


# -- build and import ---------------------------------------------------------

def test_import_and_construction_load_no_kernel():
    """``import repro`` neither loads nor compiles either kernel, and a
    chip loads the core kernel, and imports the memory side, only at its
    first step."""
    out = _python("""
        import sys
        import repro
        from repro.gpu import cluster
        from repro.noc import batched
        from repro.noc.ideal import PerfectNetwork
        from repro.system.accelerator import build_chip
        from repro.workloads.profiles import profile
        loaded = lambda: (sorted(m for m in ("setuptools", "_noc_kernel",
                                             "_core_kernel",
                                             "repro.mem.nodes")
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
        "(['_core_kernel', 'repro.mem.nodes'], False, True)"]


def test_failing_build_runs_the_python_cores(tmp_path):
    """With a compiler that always fails, chips run the reference: every
    Python core, MC and DRAM channel steps on every tick of its clock,
    with the cluster's results, and the failure is logged once."""
    out = _python(f"""
        import json
        from collections import Counter
        from pathlib import Path
        from repro.gpu import cluster
        from repro.gpu.core import SimtCore
        from repro.mem.controller import MemoryController
        from repro.mem.dram import GddrChannel
        from repro.noc.ideal import PerfectNetwork
        from repro.system.accelerator import build_chip
        from repro.workloads.profiles import profile
        cluster.KERNEL.cache_dirs = lambda: [Path({str(tmp_path)!r})]
        calls = Counter()

        def counted(owner, attr):
            method = getattr(owner, attr)

            def wrapper(*args):
                calls[owner.__name__] += 1
                return method(*args)
            setattr(owner, attr, wrapper)

        counted(SimtCore, "step")
        counted(MemoryController, "icnt_step")
        counted(GddrChannel, "step")
        results, counts = [], []
        for _ in range(2):
            calls.clear()
            chip = build_chip(profile("MUM"), network=PerfectNetwork(),
                              seed=11, instructions_per_warp=4)
            results.append(chip.run_to_completion().to_json())
            assert chip._cluster is False and chip._memory is None
            counts.append([
                [calls["SimtCore"], calls["MemoryController"],
                 calls["GddrChannel"]],
                [chip.core_cycle * len(chip.cores),
                 chip.icnt_cycle * len(chip.mcs),
                 chip.dram_cycle * len(chip.mcs)]])
        print(json.dumps([results, counts]))
    """, env={"CC": "false"})
    assert out.returncode == 0, out.stderr
    (first, second), counts = json.loads(out.stdout.splitlines()[-1])
    for made, ticks in counts:
        assert made == ticks and min(ticks) > 0, (made, ticks)
    warnings = [line for line in out.stderr.splitlines()
                if "compiled core kernel unavailable" in line]
    assert len(warnings) == 1, out.stderr
    chip = _perfect_chip()
    assert first == second == chip.run_to_completion().to_json()
    assert isinstance(chip._cluster, CoreCluster)
