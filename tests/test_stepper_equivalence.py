"""Two-way determinism contract of the cycle core.

Every network steps through the compiled cycle kernel
(``repro.noc.batched``, the default); the reference exhaustive scan
(``use_reference_stepper`` / ``REPRO_REFERENCE_STEPPER=1``) is the oracle
it must match.  The chip adds its own pair in ``Accelerator.step``: the
compiled chip side (core cluster and memory side, which skip cores,
MCs and DRAM channels that provably cannot change state) against the
Python cores, MCs and channels it steps on every tick without it.  The
two must be bit-identical — not statistically close — on every design
the builder can produce, or a result could silently depend on which
stepper ran it.

This module pins that contract:

* a golden matrix over every named design at low and saturated load,
  asserting equal result payloads, equal ``NetworkStats`` snapshots and
  equal final network state dumps for the kernel with the invariant
  checker off and on and for a traced run (which steps on the reference
  scan), plus closed-loop legs on a finite kernel;
* lockstep runs of the same cells and kernel that compare stats and
  state every few cycles and audit the kernel's exported state as they
  go, plus two chip legs that load the chip-side gates (the DRAM wake
  gate and the issue-retry memo) with full MSHR files and DRAM queues;
* a randomized fuzz sweep (designs, seeds, mesh shapes, injection rates,
  VC/buffer configurations) comparing default against reference;
* the selection plumbing: the env var, the idle-only switches (to the
  reference, and by attaching a tracer) that leave nothing half-switched
  when they refuse, a mid-run idle switch that
  continues bit-identically, and the audit of the exported state
  mid-stream;
* the precomputed ``VcConfig`` tables against their dynamic oracle and the
  ``__slots__`` layout of Packet/Flit.
"""

import dataclasses
import random
import re

import pytest

from repro.core.builder import (NAMED_DESIGNS, build, checked_variant,
                                design_by_name, design_constraint_violations,
                                open_loop_variant)
from repro.noc.ideal import BandwidthLimitedNetwork, PerfectNetwork
from repro.noc.invariants import audit_network, format_system_state
from repro.noc.openloop import OpenLoopRunner
from repro.noc.packet import (Flit, Packet, RouteGroup, TrafficClass,
                              read_request)
from repro.noc.stats import merge_stats
from repro.noc.topology import Coord, Mesh
from repro.noc.traffic import UniformManyToFew
from repro.noc.vc import VcConfig, dedicated_vc_config, shared_vc_config
from repro.gpu.cluster import CoreCluster
from repro.mem.nodes import MemoryNodes
from repro.system.accelerator import build_chip
from repro.telemetry import TelemetryHub, TelemetrySpec
from repro.workloads.profiles import QUICK_MIX, profile

#: Every named design point (Table V abbreviations and ablations).
DESIGNS = tuple(NAMED_DESIGNS)
#: Baseline, checkerboard routing, channel-sliced double network.
LOCKSTEP_DESIGNS = ("TB-DOR", "CP-CR-4VC", "Double-CP-CR")
#: Closed-loop legs: baseline, sliced double network, the combined
#: throughput-effective design (multi-inject MCs), multi-inject plus
#: multi-eject MCs, and ROMM's phase flip.
CLOSED_DESIGNS = ("TB-DOR", "Double-CP-CR", "Throughput-Effective",
                  "Double-CP-CR-2P2E", "CP-ROMM-4VC")
#: Well below and well past saturation of the 6x6 baseline mesh.
RATES = (0.02, 0.30)

WARMUP, MEASURE = 100, 200
SEED = 11
#: Cycles between mid-run comparisons in the lockstep tests.
CHECKPOINT = 25


def _normalized_state(system):
    """``format_system_state`` with packet ids renumbered by first
    appearance: pids come from a process-global counter, so two otherwise
    identical runs print different absolute ids."""
    seen = {}

    def rename(match):
        pid = match.group(1)
        return f"p{seen.setdefault(pid, len(seen))}"

    return re.sub(r"\bp(\d+)\b", rename, format_system_state(system))


def _stats_snapshot(system):
    """Every observable ``NetworkStats`` counter, derived rate and
    histogram (every bucket, min and max), per network slice — the
    "bit-identical stats" half of the contract (the state dump covers
    buffers/credits/pointers)."""
    snapshot = []
    for net in getattr(system, "networks", [system]):
        s = net.stats
        snapshot.append({
            "name": net.name,
            "cycles": s.cycles,
            "offered": (s.packets_offered, s.flits_offered),
            "injected": (s.packets_injected, s.flits_injected),
            "ejected": (s.packets_ejected, s.flits_ejected),
            # the power model's always-on activity counters are part of
            # the bit-identity contract: both steppers must count every
            # crossbar grant, buffer access and link delivery identically
            "activity": (s.crossbar_traversals, s.buffer_reads,
                         s.buffer_writes, s.link_flit_hops),
            "accepted_rate": s.accepted_flit_rate(),
            "per_class": {
                tclass.name: (cs.packets, cs.flits, cs.latency_sum,
                              cs.network_latency_sum,
                              cs.latency_hist.to_json(),
                              cs.network_latency_hist.to_json())
                for tclass, cs in s.per_class.items()
            },
            "node_injected": list(s.node_injected_flits),
            "node_ejected": list(s.node_ejected_flits),
        })
    return snapshot


def _open_runner(design_name, rate, *, reference=False, checked=False,
                 traced=False):
    """Build one 6x6 open-loop cell without running it; returns
    (runner, hub)."""
    design = open_loop_variant(design_by_name(design_name))
    if checked:
        design = checked_variant(design, check_interval=32,
                                 watchdog_cycles=20_000)
    system = build(design, Mesh(6, 6), num_mcs=8, seed=SEED)
    if reference:
        system.use_reference_stepper()
    hub = None
    if traced:
        hub = TelemetryHub(TelemetrySpec(trace=True))
        hub.attach_network(system)
    runner = OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                            UniformManyToFew(system.mc_nodes), rate,
                            seed=SEED)
    return runner, hub


def _open_cell(design_name, rate, **options):
    """Run one 6x6 open-loop cell; returns (comparable cell, hub)."""
    runner, hub = _open_runner(design_name, rate, **options)
    point = runner.run(warmup=WARMUP, measure=MEASURE)
    cell = {
        "payload": point.to_json(),
        "stats": _stats_snapshot(runner.network),
        "state": _normalized_state(runner.network),
        "hist": runner._lat_hist.to_json(),
    }
    return cell, hub


def _assert_lockstep(fast_system, ref_system, where):
    """Stats and full network state agree mid-run, and the state the
    kernel exports passes every audit."""
    assert _stats_snapshot(fast_system) == _stats_snapshot(ref_system), where
    assert (_normalized_state(fast_system)
            == _normalized_state(ref_system)), where
    for net in fast_system.networks:
        assert net._batched is not None
        assert audit_network(net) == [], where


@pytest.mark.parametrize("design_name", DESIGNS)
@pytest.mark.parametrize("rate", RATES)
def test_four_way_golden_matrix(design_name, rate):
    """Four legs per cell — the reference scan, the default (compiled
    kernel), the default under the invariant checker, and a traced run —
    agree on result payload, stats snapshot and final state.  The checker
    leg shows the checker does not perturb the kernel.  The traced leg
    runs on the reference scan (attaching a tracer switches an idle
    network to it, for the per-hop events), so it shows that the switch
    at attach time and the tracer's hooks leave results unchanged; it
    does not exercise the kernel."""
    oracle, _ = _open_cell(design_name, rate, reference=True)
    plain, _ = _open_cell(design_name, rate)
    assert plain == oracle, "compiled kernel diverged from reference"
    checked, _ = _open_cell(design_name, rate, checked=True)
    assert checked == oracle, "invariant checker perturbed the kernel"
    traced, hub = _open_cell(design_name, rate, traced=True)
    assert traced == oracle, "packet tracer perturbed the run"
    assert hub.tracer.completed, "tracer saw no packets"
    assert all(net._batched is None for net in hub._networks)


@pytest.mark.parametrize("design_name", LOCKSTEP_DESIGNS)
@pytest.mark.parametrize("rate", RATES)
def test_open_loop_bit_identity(design_name, rate):
    """Default == reference cycle by cycle, not only at the end: the two
    step in lockstep and are compared every ``CHECKPOINT`` cycles, so a
    divergence that later washes out still fails, and the failure names
    the window it first appeared in."""
    ref, _ = _open_runner(design_name, rate, reference=True)
    fast, _ = _open_runner(design_name, rate)
    for start in range(0, WARMUP + MEASURE, CHECKPOINT):
        for _ in range(CHECKPOINT):
            ref._cycle(tag=None)
            fast._cycle(tag=None)
        _assert_lockstep(fast.network, ref.network,
                         f"cycles {start}..{start + CHECKPOINT}")


def _token(packet):
    """A packet's memory token (packet ids differ between two chips)."""
    return None if packet is None else packet.payload


def _dram_request(request):
    return (request.addr, request.is_write, request.size_bytes,
            request.arrival, _token(request.payload), request.bank,
            request.row, request.issue_time, request.complete_time,
            request.row_hit)


def _chip_counters(chip):
    """The chip's measurement counters, its latency histogram by summary
    (histograms do not define equality), per core the state a
    structural-stall retry touches (the stall count, each warp's
    ``ready_at`` and ``pending_loads``, the scheduler pointer and the
    wake time), per MC its counters, input pipeline (ready cycle and
    token), reply backlog and write-backs and L2 hits and misses, and
    per channel its counters, clock, ``next_event``, banks, bus and
    activate times and queued and in-flight requests."""
    counters = dict(vars(chip._snapshot()))
    counters["latency_hist"] = counters["latency_hist"].summary()
    counters["cores"] = [
        (core.structural_stalls, core.scheduler._pointer, core.wake,
         [(warp.ready_at, warp.pending_loads) for warp in core.warps])
        for core in chip.cores]
    counters["mcs"] = [
        (mc.cycles, mc.blocked_cycles, mc.requests_received, mc.reads,
         mc.writes, mc.replies_sent, mc.max_queue_depth, mc._icnt_cycle,
         mc.l2.hits, mc.l2.misses,
         [(ready, _token(packet)) for ready, packet in mc._input],
         [(reply.dest, reply.created, _token(reply))
          for reply in mc._replies],
         list(mc._writebacks))
        for mc in chip.mcs]
    counters["channels"] = [
        (dram.requests_serviced, dram.row_hits, dram.row_misses,
         dram.data_busy_cycles, dram.pending_cycles, dram.now,
         dram.next_event, dram._next_completion, dram._bus_free_at,
         dram._last_activate_any,
         [(bank.open_row, bank.busy_until, bank.last_activate)
          for bank in dram._banks],
         [_dram_request(r) for r in dram._queue],
         [_dram_request(r) for r in dram._in_flight])
        for dram in (mc.dram for mc in chip.mcs)]
    return counters


def _ideal_state(network):
    """An ideal network's whole ``NetworkStats`` (every counter, per class
    and per node, and each histogram's buckets, min
    and max), clock, allowance, queued packets and ``idle``."""
    stats = network.stats
    state = {name: value for name, value in vars(stats).items()
             if name not in ("per_class", "node_injected_flits",
                             "node_ejected_flits", "_slice_stats")}
    state["per_class"] = {
        tclass.name: (cs.packets, cs.flits, cs.latency_sum,
                      cs.network_latency_sum, cs.latency_hist.to_json(),
                      cs.network_latency_hist.to_json())
        for tclass, cs in stats.per_class.items()}
    state["node_injected"] = list(stats.node_injected_flits)
    state["node_ejected"] = list(stats.node_ejected_flits)
    state["clock"] = (network.cycle, getattr(network, "_allowance", None),
                      network.idle)
    state["queue"] = [(p.src, p.dest, p.size_bytes, p.created, p.injected,
                       _token(p)) for p in network.queued_packets()]
    return state


def _finite_chip(abbr, ipw, reference, **where):
    chip = build_chip(profile(abbr), seed=SEED, instructions_per_warp=ipw,
                      **where)
    if reference:
        chip.use_reference_stepper()
    return chip


def _bin_chip(design_name, *, reference=False):
    return _finite_chip("BIN", 8, reference,
                        design=design_by_name(design_name))


@pytest.mark.parametrize("design_name", CLOSED_DESIGNS)
def test_closed_loop_three_way(design_name):
    """Three chip legs agree on a finite BIN kernel whose drained tail
    exercises the idle fast paths (finished cores, idle MCs and DRAM
    channels, empty networks): the references of chip and network, the
    defaults, and the defaults under the system-level audit, which must
    not perturb them."""

    def run(chip):
        result = chip.run(warmup=100, measure=900).to_json()
        return result, _stats_snapshot(chip.network)

    oracle = run(_bin_chip(design_name, reference=True))
    assert run(_bin_chip(design_name)) == oracle, "defaults diverged"
    audited = _bin_chip(design_name)
    audited.enable_checks(64)
    assert run(audited) == oracle, "system audit perturbed the defaults"


#: Ideal networks of the audited legs: the perfect network, a cap at which
#: the queue drains, and one below a reply's four flits, where every
#: reply waits in the queue for good.
IDEAL_NETWORKS = {
    "perfect": PerfectNetwork,
    "cap-2.0": lambda: BandwidthLimitedNetwork(2.0),
    "cap-0.3": lambda: BandwidthLimitedNetwork(0.3),
}


@pytest.mark.parametrize("network", sorted(IDEAL_NETWORKS))
def test_closed_loop_audit_on_ideal_networks(network):
    """The system-level audit, run every cycle, finds the packets an ideal
    network holds (the reference's queue, the compiled network's
    records), so it passes on both, and perturbs neither."""

    def run(reference, audited):
        chip = _finite_chip("MUM", 4, reference,
                            network=IDEAL_NETWORKS[network]())
        if audited:
            chip.enable_checks(1)
        result = chip.run(warmup=50, measure=150).to_json()
        return result, _ideal_state(chip.network)

    oracle = run(reference=True, audited=False)
    assert run(reference=True, audited=True) == oracle
    assert run(reference=False, audited=True) == oracle


def _lockstep_to_completion(make_chip, max_cycles, mesh=True,
                            observe=None):
    """Step ``make_chip(reference=True)`` and ``make_chip(reference=False)``
    in lockstep until the kernel completes: they finish on the same cycle
    and agree on chip counters (and, on a mesh, network stats and state;
    on an ideal network, its stats, clock, queue and ``idle``) at every
    ``CHECKPOINT``.  ``observe(ref)``, if given, sees the
    reference chip after every cycle.  Returns the reference chip and the
    deepest DRAM queue it saw."""
    ref, fast = make_chip(reference=True), make_chip(reference=False)
    peak_queue = 0
    while not ref.finished:
        assert ref.icnt_cycle < max_cycles, "kernel did not finish"
        ref.step()
        fast.step()
        if observe is not None:
            observe(ref)
        peak_queue = max(peak_queue, *(mc.dram.queue_occupancy
                                       for mc in ref.mcs))
        where = f"cycle {ref.icnt_cycle}"
        assert fast.finished == ref.finished, where
        if ref.icnt_cycle % CHECKPOINT == 0 or ref.finished:
            assert _chip_counters(fast) == _chip_counters(ref), where
            if mesh:
                _assert_lockstep(fast.network, ref.network, where)
            elif isinstance(ref.network, (PerfectNetwork,
                                          BandwidthLimitedNetwork)):
                assert (_ideal_state(fast.network)
                        == _ideal_state(ref.network)), where
    return ref, peak_queue


@pytest.mark.parametrize("design_name", CLOSED_DESIGNS)
def test_closed_loop_bit_identity(design_name):
    """Chip defaults == references cycle by cycle through to kernel
    completion on a finite BIN kernel."""
    _lockstep_to_completion(
        lambda reference: _bin_chip(design_name, reference=reference),
        20_000)


def test_closed_loop_bit_identity_perfect_mum():
    """The gated paths under pressure, without a mesh: MUM's divergent
    loads on the perfect network keep the MSHR files full (tens of
    thousands of structural-stall retries, most answered by the retry
    memo) and fill the DRAM queues to capacity."""
    ref, peak_queue = _lockstep_to_completion(
        lambda reference: _finite_chip("MUM", 4, reference,
                                       network=PerfectNetwork()),
        10_000, mesh=False)
    assert sum(core.structural_stalls for core in ref.cores) > 10_000
    assert peak_queue == ref.mcs[0].dram.timing.queue_capacity


@pytest.mark.parametrize("abbr, cap, binds", (("BLK", 1.5, True),
                                               ("MUM", 24.5, False)))
def test_closed_loop_bit_identity_bandwidth_capped(abbr, cap, binds):
    """The compiled capped network == the reference cycle by cycle to
    completion, at a fractional cap whose allowance holds packets back at
    the end of most network steps, and at one where it rarely does."""
    chips, bound = [], []

    def make_chip(reference):
        chip = _finite_chip(abbr, 4, reference,
                            network=BandwidthLimitedNetwork(cap))
        if reference:
            network = chip.network
            step = network.step

            def counted(cycle):
                step(cycle)
                bound.append(not network.idle)
            network.step = counted
        chips.append(chip)
        return chip

    _lockstep_to_completion(make_chip, 20_000, mesh=False)
    share = sum(bound) / len(bound)
    assert share > 0.9 if binds else 0 < share < 0.1, share
    assert chips[1].network._kernel is not None


def test_closed_loop_bit_identity_dram_mix():
    """RD on the baseline mesh: full DRAM queues with both row hits and
    row misses, so every source of a channel's ``next_event`` (a bank
    freeing, a completion, an arrival) gates some of its steps."""
    ref, peak_queue = _lockstep_to_completion(
        lambda reference: _finite_chip("RD", 12, reference,
                                       design=design_by_name("TB-DOR")),
        10_000)
    assert peak_queue == ref.mcs[0].dram.timing.queue_capacity
    assert all(mc.dram.row_hits and mc.dram.row_misses for mc in ref.mcs)


@pytest.mark.parametrize("abbr", QUICK_MIX)
def test_closed_loop_bit_identity_quick_mix_on_the_cluster(abbr):
    """The compiled core cluster == the Python cores cycle by cycle to
    completion, on the perfect network, for every QUICK_MIX profile: the
    legs above cover BIN, MUM and RD."""
    chips = []

    def make_chip(reference):
        chip = _finite_chip(abbr, 6, reference, network=PerfectNetwork())
        chips.append(chip)
        return chip

    _lockstep_to_completion(make_chip, 10_000, mesh=False)
    reference, default = chips
    assert reference._cluster is None and reference._memory is None
    assert isinstance(default._cluster, CoreCluster)
    assert isinstance(default._memory, MemoryNodes)
    assert default.network._kernel is not None


# -- randomized fuzz sweep -------------------------------------------------

def _fuzz_cases(n):
    """Deterministic pseudo-random (design, mesh, rate, seed) cases.

    The generator seed is fixed so failures reproduce; the cases span
    every named design, mesh shapes (square and non-square), loads from
    idle to deep saturation, VC counts, buffer depths and source-queue
    capacities.  Combinations ``design_constraint_violations`` rejects
    (e.g. a checkerboard placement the mesh cannot hold) are skipped.
    """
    master = random.Random(0xB47C4ED)
    produced = 0
    while produced < n:
        name = master.choice(DESIGNS)
        design = open_loop_variant(design_by_name(name))
        if design.routing == "dor":
            # Extra VC / shallow-buffer variation is only free of design
            # constraints on the plain-DOR baseline.
            # (source queues stay unbounded — the open-loop harness
            # requires reply injection to always succeed.)
            design = dataclasses.replace(
                design,
                vcs_per_class=master.choice((1, 2)),
                vc_buffer_depth=master.choice((4, 8)),
            )
        mesh = Mesh(master.choice((4, 5, 6)), master.choice((4, 5, 6)))
        num_mcs = master.choice((4, 8))
        rate = master.choice((0.02, 0.05, 0.1, 0.2, 0.35))
        seed = master.randrange(1 << 30)
        if design_constraint_violations(design, mesh, num_mcs):
            continue
        produced += 1
        yield design, mesh, num_mcs, rate, seed


def _fuzz_run(design, mesh, num_mcs, rate, seed, reference):
    system = build(design, mesh, num_mcs=num_mcs, seed=seed)
    if reference:
        system.use_reference_stepper()
    runner = OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                            UniformManyToFew(system.mc_nodes), rate,
                            seed=seed)
    point = runner.run(warmup=40, measure=100)
    return {
        "payload": point.to_json(),
        "stats": _stats_snapshot(system),
        "state": _normalized_state(system),
    }


def test_fuzz_batched_matches_reference():
    """48 randomized configurations: kernel == reference, bit for bit,
    including the final in-flight network state."""
    for case, (design, mesh, num_mcs, rate, seed) in \
            enumerate(_fuzz_cases(48)):
        ref = _fuzz_run(design, mesh, num_mcs, rate, seed, True)
        bat = _fuzz_run(design, mesh, num_mcs, rate, seed, False)
        assert bat == ref, (
            f"fuzz case {case} diverged: {design.name} mesh="
            f"{mesh.cols}x{mesh.rows} mcs={num_mcs} rate={rate} "
            f"seed={seed}")


# -- selection plumbing ----------------------------------------------------

def test_reference_stepper_env_var(monkeypatch):
    """``REPRO_REFERENCE_STEPPER=1`` selects the exhaustive loops at
    construction time, for both the chip and its networks."""
    monkeypatch.setenv("REPRO_REFERENCE_STEPPER", "1")
    chip = build_chip(profile("BIN"), design=design_by_name("TB-DOR"),
                      seed=SEED, instructions_per_warp=8)
    assert chip._reference
    for net in chip.network.networks:
        assert net._batched is None
    monkeypatch.delenv("REPRO_REFERENCE_STEPPER")
    chip = build_chip(profile("BIN"), design=design_by_name("TB-DOR"),
                      seed=SEED, instructions_per_warp=8)
    assert not chip._reference
    for net in chip.network.networks:
        assert net._batched is not None


def _make_busy(net, src, dest):
    """Queue one read request on ``net`` so that it is no longer idle."""
    assert net.try_inject(read_request(net.mesh.index(src),
                                       net.mesh.index(dest)), net.cycle)
    assert not net.idle


def test_system_reference_switch_is_all_or_nothing():
    """A busy slice refuses the switch before any slice changes stepper:
    with slice 1 busy and slice 0 idle, every slice stays on the batched
    core."""
    system = build(open_loop_variant(design_by_name("Double-CP-CR")),
                   Mesh(6, 6), num_mcs=8, seed=SEED)
    assert len(system.networks) == 2
    _make_busy(system.networks[1], system.compute_nodes[0],
               system.mc_nodes[0])
    assert system.networks[0].idle
    with pytest.raises(RuntimeError, match="idle"):
        system.use_reference_stepper()
    for net in system.networks:
        assert net._batched is not None, f"{net.name} switched anyway"
    system.run_until_idle()
    system.use_reference_stepper()
    for net in system.networks:
        assert net._batched is None


@pytest.mark.parametrize("via", ["system", "hub"])
def test_tracer_attach_is_all_or_nothing(via):
    """Attaching a tracer switches the slices to the reference stepper,
    which is idle-only: with slice 1 busy and slice 0 idle, the attach
    raises and no slice is switched or traced."""
    system = build(open_loop_variant(design_by_name("Double-CP-CR")),
                   Mesh(6, 6), num_mcs=8, seed=SEED)
    _make_busy(system.networks[1], system.compute_nodes[0],
               system.mc_nodes[0])
    hub = TelemetryHub(TelemetrySpec(trace=True))

    def attach():
        if via == "system":
            system.enable_tracer(hub.tracer)
        else:
            hub.attach_network(system)

    with pytest.raises(RuntimeError, match="idle"):
        attach()
    for net in system.networks:
        assert net._batched is not None, f"{net.name} switched anyway"
        assert net.tracer is None, f"{net.name} traced anyway"
    assert hub._networks == []
    system.run_until_idle()
    attach()
    for net in system.networks:
        assert net._batched is None and net.tracer is hub.tracer


def test_chip_reference_switch_is_all_or_nothing():
    """A chip whose network is busy refuses the switch without flipping
    itself to the reference: chip and networks stay on the fast path
    together."""
    chip = build_chip(profile("BIN"), design=design_by_name("Double-CP-CR"),
                      seed=SEED, instructions_per_warp=8)
    _make_busy(chip.network.networks[1], chip.cores[0].coord,
               chip.mcs[0].coord)
    with pytest.raises(RuntimeError, match="idle"):
        chip.use_reference_stepper()
    assert not chip._reference, "chip switched to reference loops anyway"
    for net in chip.network.networks:
        assert net._batched is not None


def test_audit_event_scheduling_under_batched():
    """The kernel's export reproduces consistent objects mid-stream, with
    traffic in flight: every audit passes on the exported state, and the
    export runs only when the kernel has stepped since the last one, so
    an edit made to the objects is what the next audit sees."""
    system = build(open_loop_variant(design_by_name("TB-DOR")),
                   Mesh(6, 6), num_mcs=8, seed=SEED)
    runner = OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                            UniformManyToFew(system.mc_nodes), 0.30,
                            seed=SEED)
    runner.run(warmup=50, measure=100)
    for net in system.networks:
        assert net._batched is not None
        assert net._batched.stale, "the kernel stepped since construction"
        assert audit_network(net) == []
        assert net._buffered_flits > 0, "audit must catch a busy network"
        assert not net._batched.stale
        busiest = max(net.routers.values(), key=lambda r: r.occupancy)
        busiest.occupancy += 1
        assert any("occupancy counter" in p for p in audit_network(net))
        runner._cycle(tag=None)           # the kernel steps: re-export
        assert audit_network(net) == []


@pytest.mark.parametrize("design_name", ("TB-DOR", "CP-CR-4VC",
                                         "Double-CP-CR-2P2E",
                                         "CP-ROMM-4VC"))
@pytest.mark.parametrize("rate", (0.05, 0.30))
def test_idle_midrun_switch_matches_reference(design_name, rate):
    """Run the default for 300 cycles, drain to idle, switch to the
    reference scan and run 300 more: stats and state equal a pure
    reference run.  The switch exports every rotation, eject-port, free-VC
    and iSLIP pointer the kernel left, and the reference continues from
    them."""

    def pointers(system):
        """Every rotation pointer and credit count: state a dump does not
        print and that a drained network only reveals when contention
        happens to consult it."""
        out = []
        for net in system.networks:
            for router in net.routers.values():
                allocator = router._allocator
                out.append((router._va_rotate, router._eject_pointer,
                            list(allocator._in_ptr),
                            list(allocator._out_ptr),
                            [(port.credits, port.vc_pointers)
                             for port in router.out_ports.values()]))
        return out

    def run(switch):
        runner, _ = _open_runner(design_name, rate, reference=not switch)
        for _ in range(300):
            runner._cycle(tag=None)
        runner.network.run_until_idle()
        if switch:
            runner.network.use_reference_stepper()
            for net in runner.network.networks:
                assert net._batched is None
        at_switch = pointers(runner.network)
        for _ in range(300):
            runner._cycle(tag=None)
        return (at_switch, pointers(runner.network),
                _stats_snapshot(runner.network),
                _normalized_state(runner.network),
                runner._lat_hist.summary())

    assert run(switch=True) == run(switch=False)


# -- histogram / merged-stats plumbing on the batched path -----------------

def test_sliced_merge_stats_from_batched_path():
    """``merge_stats`` over the slices of a double network fed by the
    batched core: bit-identical to the reference merge, including the
    streamed latency histograms."""

    def merged(reference):
        system = build(open_loop_variant(design_by_name("Double-CP-CR")),
                       Mesh(6, 6), num_mcs=8, seed=SEED)
        if reference:
            system.use_reference_stepper()
        runner = OpenLoopRunner(system, system.compute_nodes,
                                system.mc_nodes,
                                UniformManyToFew(system.mc_nodes), 0.30,
                                seed=SEED)
        runner.run(warmup=WARMUP, measure=MEASURE)
        stats = merge_stats([net.stats for net in system.networks])
        return stats, runner._lat_hist

    ref_stats, ref_hist = merged(True)
    bat_stats, bat_hist = merged(False)
    assert bat_stats.accepted_flit_rate() == ref_stats.accepted_flit_rate()
    assert bat_stats.flits_ejected == ref_stats.flits_ejected
    assert (bat_stats.latency_summary() == ref_stats.latency_summary())
    assert (bat_stats.latency_summary(network_only=True)
            == ref_stats.latency_summary(network_only=True))
    assert bat_hist.summary() == ref_hist.summary()


def test_merge_stats_per_slice_rates_from_batched_windows():
    """The per-slice rate contract holds for stats windows produced by
    the batched core: merging windows of *different* cycle counts sums
    the per-slice rates instead of dividing by one window's cycles."""

    def window(measure):
        system = build(open_loop_variant(design_by_name("TB-DOR")),
                       Mesh(5, 5), num_mcs=4, seed=SEED)
        runner = OpenLoopRunner(system, system.compute_nodes,
                                system.mc_nodes,
                                UniformManyToFew(system.mc_nodes), 0.2,
                                seed=SEED)
        runner.run(warmup=40, measure=measure)
        return system.networks[0].stats

    short, long = window(100), window(250)
    assert short.cycles != long.cycles
    merged = merge_stats([short, long])
    assert merged.accepted_flit_rate() == pytest.approx(
        short.accepted_flit_rate() + long.accepted_flit_rate())
    node = next(node for node, flits in
                enumerate(long.node_injected_flits) if flits)
    assert merged.injection_rate(node) == pytest.approx(
        short.injection_rate(node) + long.injection_rate(node))


# -- VcConfig precomputed tables ------------------------------------------

VC_CONFIGS = (
    shared_vc_config(1),
    shared_vc_config(2),
    shared_vc_config(2, route_split=True),
    shared_vc_config(4, route_split=True),
    dedicated_vc_config(TrafficClass.REQUEST, 2),
    dedicated_vc_config(TrafficClass.REPLY, 4, route_split=True),
)


@pytest.mark.parametrize("config", VC_CONFIGS,
                         ids=lambda c: f"{len(c.class_map)}cls-"
                                       f"{c.vcs_per_class}vc-"
                                       f"{'split' if c.route_split else 'any'}")
def test_vc_config_tables_match_dynamic_oracle(config):
    """The memoized ``allowed_vcs`` tables equal the reference computation
    for every (carried class, route group) combination."""
    for tclass, _ in config.class_map:
        for group in RouteGroup:
            assert config.allowed_vcs(tclass, group) == \
                config._dynamic_allowed_vcs(tclass, group)


def test_vc_config_tables_preserve_errors():
    """Combinations the tables skip still raise lazily, exactly as the
    dynamic path always did."""
    dedicated = dedicated_vc_config(TrafficClass.REQUEST, 2)
    with pytest.raises(ValueError, match="does not carry"):
        dedicated.allowed_vcs(TrafficClass.REPLY, RouteGroup.ANY)
    narrow = VcConfig(vcs_per_class=1,
                      class_map=((TrafficClass.REQUEST, 0),),
                      route_split=True)
    # ANY is legal with one VC per class; the split groups are not.
    assert narrow.allowed_vcs(TrafficClass.REQUEST, RouteGroup.ANY) == (0,)
    with pytest.raises(ValueError, match="at least 2 VCs"):
        narrow.allowed_vcs(TrafficClass.REQUEST, RouteGroup.XY)


# -- Packet/Flit slots -----------------------------------------------------

def test_packet_and_flit_are_slotted():
    """Packets and flits are the highest-volume objects in a run; the
    ``__slots__`` layout (no per-instance ``__dict__``) is part of the
    cycle core's memory/performance contract."""
    packet = read_request(Mesh(6, 6).index(Coord(0, 0)),
                          Mesh(6, 6).index(Coord(1, 1)))
    flits = packet.make_flits(16)
    assert not hasattr(packet, "__dict__")
    assert not hasattr(flits[0], "__dict__")
    with pytest.raises(AttributeError):
        packet.scratch = 1
    with pytest.raises(AttributeError):
        flits[0].scratch = 1
    # Field access and dataclass tooling still work on the slotted layout.
    assert flits[0].is_head and flits[-1].is_tail
    assert [f.name for f in dataclasses.fields(Flit)] == \
        ["packet", "index", "is_head", "is_tail", "ready"]
    assert "pid" in [f.name for f in dataclasses.fields(Packet)]
