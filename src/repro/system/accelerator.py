"""Closed-loop accelerator simulation.

Couples the SIMT cores, the NoC (real mesh design, perfect network, or
bandwidth-capped ideal network) and the MC nodes (L2 + GDDR3) into the full
feedback loop of Figure 1: core → request network → L2/DRAM → reply
network → core.  All of the paper's closed-loop experiments are runs of
this class under different network designs and workload profiles.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from ..core.builder import NetworkDesign, NetworkSystem, build
from ..gpu.core import MemoryToken, SimtCore
from ..mem.controller import AddressMap, MemoryController
from ..noc.histogram import merge_histograms
from ..noc.ideal import BandwidthLimitedNetwork, PerfectNetwork
from ..noc.invariants import (audit_accelerator, check_accelerator,
                              format_system_state)
from ..noc.topology import Coord, Mesh
from ..core.placement import compute_nodes, top_bottom_placement
from ..workloads.generator import SyntheticKernel
from ..workloads.profiles import BenchmarkProfile
from .clocks import RateAccumulator
from .config import ChipConfig, paper_config


@dataclass
class SimulationResult:
    """Metrics over one measurement window."""

    benchmark: str
    network: str
    icnt_cycles: int
    core_cycles: int
    retired_scalar: int
    ipc: float                           # scalar instr / core clock
    accepted_bytes_per_cycle_per_node: float
    mc_injection_rate_flits: float       # flits / icnt cycle / MC node
    mc_injection_rate_bytes: float
    mc_stall_fraction: float             # Figure 11
    mean_network_latency: float          # cycles (network only)
    mean_packet_latency: float           # includes source queueing
    dram_efficiency: float
    dram_row_hit_rate: float
    l1_hit_rate: float
    l2_hit_rate: float
    # Packet-latency tail statistics over the measurement window (bounded
    # streaming histogram; defaults keep old cached/serialized payloads
    # loadable).
    latency_min: float = 0.0
    latency_max: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    # Per-component activity over the measurement window, summed across
    # physical networks (always-on NetworkStats counters; DESIGN.md §17).
    # They feed the repro.power model post-hoc, so a PowerReport is
    # computable from any cached result without rerunning.  Defaults keep
    # old serialized payloads loadable.
    crossbar_traversals: int = 0
    buffer_reads: int = 0
    buffer_writes: int = 0
    link_flit_hops: int = 0
    flits_injected: int = 0
    flits_ejected: int = 0

    def speedup_over(self, baseline: "SimulationResult") -> float:
        if baseline.ipc == 0:
            raise ZeroDivisionError("baseline IPC is zero")
        return self.ipc / baseline.ipc - 1.0

    def as_dict(self) -> dict:
        """Plain-dict view for JSON/CSV tooling."""
        from dataclasses import asdict
        return asdict(self)

    def to_json(self) -> dict:
        """JSON-compatible dict; floats survive exactly (``repr`` round
        trip), which the parallel harness's transport and cache rely on."""
        return self.as_dict()

    @classmethod
    def from_json(cls, data: dict) -> "SimulationResult":
        """Inverse of :meth:`to_json` with field-for-field equality."""
        return cls(**data)


@dataclass
class _Snapshot:
    core_cycles: int
    retired: int
    icnt_cycles: int
    bytes_ejected: float
    mc_inj_flits: float
    mc_inj_bytes: float
    mc_blocked: int
    mc_cycles: int
    net_latency_sum: int
    packet_latency_sum: int
    packets: int
    dram_busy: int
    dram_pending: int
    dram_row_hits: int
    dram_row_total: int
    l1_hits: int
    l1_accesses: int
    l2_hits: int
    l2_accesses: int
    crossbar_traversals: int = 0
    buffer_reads: int = 0
    buffer_writes: int = 0
    link_flit_hops: int = 0
    flits_injected: int = 0
    flits_ejected: int = 0
    latency_hist: object = None          # StreamingHistogram copy


def _route_request(address_map: AddressMap, mc_nodes, line_addr: int):
    return (mc_nodes[address_map.mc_index(line_addr)],
            address_map.local_address(line_addr))


def _on_packet(ref, packet, cycle: int) -> None:
    ref().on_packet(packet, cycle)


class Accelerator:
    """The full chip.  ``mc_ids`` and ``compute_ids`` are the nodes' ids
    on the network (``Mesh.index`` of ``mc_coords``/``compute_coords``)."""

    def __init__(self, network, mc_coords: Sequence[Coord],
                 compute_coords: Sequence[Coord], kernel: SyntheticKernel,
                 config: Optional[ChipConfig] = None) -> None:
        self.config = config if config is not None else paper_config()
        self.network = network
        self.kernel = kernel
        self.mc_coords = list(mc_coords)
        self.compute_coords = list(compute_coords)
        if len(self.mc_coords) != self.config.num_memory_channels:
            raise ValueError("MC count does not match the configuration")
        if len(self.compute_coords) != self.config.num_compute_cores:
            raise ValueError("core count does not match the configuration")

        mesh = getattr(network, "mesh", None) or Mesh(
            self.config.mesh_cols, self.config.mesh_rows)
        self.mc_ids = [mesh.index(coord) for coord in self.mc_coords]
        self.compute_ids = [mesh.index(coord)
                            for coord in self.compute_coords]

        self.address_map = AddressMap(len(self.mc_coords))
        # The cores and MCs get callables that do not refer back to the
        # chip, so a dropped chip is freed by reference counting: its
        # core cluster's memory goes at once, not when the cycle
        # collector next runs a full collection.
        route_request = partial(_route_request, self.address_map,
                                tuple(self.mc_ids))
        self._cores: List[SimtCore] = [
            SimtCore(coord, self.config.core, kernel, route_request,
                     num_warps=min(kernel.profile.warps_per_core,
                                   self.config.core.max_warps),
                     node=node)
            for coord, node in zip(self.compute_coords, self.compute_ids)
        ]
        self._mcs: List[MemoryController] = [
            MemoryController(coord, self.config.mc,
                             inject=network.try_inject, node=node)
            for coord, node in zip(self.mc_coords, self.mc_ids)
        ]
        for core in self._cores:
            network.set_ejection_handler(core.node, core.on_reply)
        for mc in self._mcs:
            # Weakly, as the MC holds the network (its ``inject``).
            network.set_ejection_handler(
                mc.node, partial(_on_packet, weakref.ref(mc)))

        clocks = self.config.clocks
        self._core_clock = RateAccumulator(clocks.core_per_icnt)
        self._dram_clock = RateAccumulator(clocks.dram_per_icnt)
        self.icnt_cycle = 0
        self.core_cycle = 0
        self.dram_cycle = 0
        #: System-level audit interval (0 = off); per-network invariant
        #: checkers are configured on the design and run inside
        #: ``network.step`` independently of this.
        self._check_interval = 0
        #: Opt-in telemetry hub (``repro.telemetry``), attached via
        #: ``TelemetryHub.attach_chip``; ``None`` costs ``step`` one local
        #: test per phase.
        self.telemetry = None
        #: Debug escape hatch mirroring the network's: never start the
        #: compiled chip side, so the reference Python objects run.
        self._reference = os.environ.get("REPRO_REFERENCE_STEPPER") == "1"
        #: The compiled core cluster (``gpu/cluster.py``): None until the
        #: first step starts it (and on a reference chip), False when it
        #: cannot run this chip and the reference runs instead.
        self._cluster = None
        #: The compiled memory side (``mem/nodes.py``), started with the
        #: cluster; None while the Python MCs and channels run.
        self._memory = None
        #: The compiled ideal network's step (``noc/ideal.py``), when the
        #: chip side took its network over with it; None otherwise.
        self._ideal = None

    @property
    def cores(self) -> List[SimtCore]:
        """The SIMT cores.  On the compiled cluster, reading them first
        exports its state into these objects if it has changed since the
        last read."""
        cluster = self._cluster
        if cluster and cluster.stale:
            cluster.export()
        return self._cores

    @property
    def mcs(self) -> List[MemoryController]:
        """The MC nodes.  On the compiled memory side, reading them first
        exports its state into these objects and their channels if it has
        changed since the last read."""
        memory = self._memory
        if memory is not None and memory.stale:
            memory.export()
        return self._mcs

    # -- plumbing -------------------------------------------------------------

    def enable_checks(self, check_interval: int = 64) -> None:
        """Audit system-level request conservation (requests issued ==
        in MSHRs + in NoC + at MCs + replied) every ``check_interval``
        interconnect cycles.  Read-only; results are unchanged."""
        if check_interval < 0:
            raise ValueError("check_interval must be non-negative")
        self._check_interval = check_interval

    def audit(self):
        """Run the system-level conservation audit now; returns the list
        of violations (empty = clean)."""
        return audit_accelerator(self)

    # -- simulation loop --------------------------------------------------------

    def step(self) -> None:
        """One interconnect cycle (master clock).

        Each phase runs on the compiled chip side when it runs this chip:
        one core-cluster call before the network and one memory-side call
        after it, which skip cores before their ``wake``, MCs whose step
        would only advance their clocks and DRAM channels before their
        ``next_event``; on an ideal network the network phase is a third
        kernel call, which takes the cores' requests from the kernel
        itself.  Otherwise it runs on the ``SimtCore``,
        ``MemoryController`` and ``GddrChannel`` objects, each stepped
        every tick: the reference, which the golden tests compare with
        the compiled side bit for bit.  With ``telemetry`` attached, each
        phase is timed and the per-cycle hook runs last.
        """
        cluster = self._cluster
        if cluster is None and not self._reference:
            cluster = self._start_cluster()
        telemetry = self.telemetry
        if telemetry is not None:
            profiler = telemetry.profiler
            t = profiler.clock()
        self.icnt_cycle += 1
        now = self.icnt_cycle
        ticks = self._core_clock.advance()
        if cluster:
            if ticks:
                cluster.step(self.core_cycle + 1, ticks)
                self.core_cycle += ticks
        else:
            for _ in range(ticks):
                self.core_cycle += 1
                cc = self.core_cycle
                for core in self._cores:
                    core.step(cc)
        if telemetry is not None:
            t = profiler.add_since("cores", t)
        ideal = self._ideal
        if ideal is None:
            for core in self._cores:
                outbound = core.outbound
                while outbound:
                    # Cores timestamp in the core clock domain; packet
                    # latency is accounted in interconnect cycles, so
                    # re-stamp at the network interface.
                    outbound[0].created = now
                    if not self.network.try_inject(outbound[0], now):
                        break
                    outbound.popleft()
            self.network.step(now)
        else:
            ideal(now)
        if telemetry is not None:
            t = profiler.add_since("network", t)
        ticks = self._dram_clock.advance()
        if cluster:
            self._memory.step(now, self.dram_cycle + 1, ticks)
            self.dram_cycle += ticks
        else:
            for mc in self._mcs:
                mc.icnt_step(now)
            for _ in range(ticks):
                self.dram_cycle += 1
                mclk = self.dram_cycle
                for mc in self._mcs:
                    mc.dram_step(mclk)
        if telemetry is not None:
            t = profiler.add_since("memory", t)
        if self._check_interval and now % self._check_interval == 0:
            check_accelerator(self)
        if telemetry is not None:
            telemetry.on_cycle(now)
            profiler.add_since("telemetry", t)

    def use_reference_stepper(self) -> None:
        """Run the reference loops (chip and network).  Once the compiled
        chip side (core cluster and memory side) has stepped, this
        raises.  The network switch is idle-only; it runs next, so a busy
        network raises with the chip still on its compiled side."""
        if self._cluster:
            raise RuntimeError(
                "the compiled core cluster has stepped this chip; select "
                "the reference stepper before the first step")
        if hasattr(self.network, "use_reference_stepper"):
            self.network.use_reference_stepper()
        self._reference = True

    def _start_cluster(self):
        """Start the compiled chip side at the first step: the core
        cluster and, with it, the memory side and, on a
        ``PerfectNetwork`` or ``BandwidthLimitedNetwork``, the network;
        False (the reference Python cores, MCs, channels and network run
        this chip) if the cluster cannot run it, or the ideal network
        cannot be taken over (another chip has, or it has been used)."""
        # Imported here, not at module level, so ``import repro`` does not
        # pay for the cluster, memory-side and loader modules.
        from ..gpu import cluster
        from ..mem import nodes
        network = self.network
        ideal = type(network) in (PerfectNetwork, BandwidthLimitedNetwork)
        if ideal and not network._claimable(self):
            self._cluster = False
            return False
        self._cluster = cluster.start(self) or False
        if self._cluster:
            module = cluster.KERNEL.load()
            self._memory = nodes.start(self, module)
            if ideal:
                packet = network._compile(
                    module, self._cluster._c, self._memory._c, self,
                    MemoryToken)
                self._cluster.route(packet)
                self._memory.packet = packet
                self._ideal = network._kernel.step
        return self._cluster

    def run(self, warmup: int = 1_000, measure: int = 3_000,
            label: Optional[str] = None) -> SimulationResult:
        """Warm up, then measure a steady-state window."""
        for _ in range(warmup):
            self.step()
        before = self._snapshot()
        for _ in range(measure):
            self.step()
        after = self._snapshot()
        return self._result(before, after, label)

    def run_to_completion(self, max_cycles: int = 2_000_000,
                          label: Optional[str] = None) -> SimulationResult:
        """Run a finite kernel until every warp, queue and channel drains."""
        before = self._snapshot()
        start = self.icnt_cycle
        while not self.finished:
            if self.icnt_cycle - start > max_cycles:
                raise RuntimeError(
                    "simulation did not finish; did you use an infinite "
                    "kernel?\n" + format_system_state(self.network))
            self.step()
        return self._result(before, self._snapshot(), label)

    @property
    def finished(self) -> bool:
        cluster = self._cluster
        if cluster:
            if not (cluster.finished() and self._memory.idle()):
                return False
        elif not (all(core.finished for core in self._cores)
                  and all(mc.idle for mc in self._mcs)):
            return False
        return getattr(self.network, "idle", True)

    # -- metrics ------------------------------------------------------------------

    def _network_list(self):
        return getattr(self.network, "networks", [self.network])

    def _bytes_flits(self, node_filter=None):
        """(bytes ejected, flits injected at filtered nodes, bytes injected
        at filtered nodes) across physical networks."""
        total_bytes = 0.0
        inj_flits = 0.0
        inj_bytes = 0.0
        for net in self._network_list():
            width = getattr(net, "params", None)
            width = width.channel_width if width is not None else (
                getattr(net, "channel_width", 16))
            total_bytes += net.stats.flits_ejected * width
            if node_filter:
                for node in node_filter:
                    flits = net.stats.node_injected_flits[node]
                    inj_flits += flits
                    inj_bytes += flits * width
        return total_bytes, inj_flits, inj_bytes

    def _snapshot(self) -> _Snapshot:
        bytes_ejected, mc_flits, mc_bytes = self._bytes_flits(self.mc_ids)
        nets = self._network_list()
        net_lat = packet_lat = packets = 0
        for net in nets:
            for cs in net.stats.per_class.values():
                net_lat += cs.network_latency_sum
                packet_lat += cs.latency_sum
                packets += cs.packets
        latency_hist = merge_histograms(
            cs.latency_hist for net in nets
            for cs in net.stats.per_class.values())
        # The compiled chip side sums its counters itself, without
        # exporting its cores and MCs.
        if self._cluster:
            retired, l1_hits, l1_accesses = self._cluster.counters()
            (mc_blocked, mc_cycles, dram_busy, dram_pending, row_hits,
             row_total, l2_hits, l2_accesses) = self._memory.counters()
        else:
            cores, mcs = self._cores, self._mcs
            retired = sum(core.retired_scalar for core in cores)
            l1_hits = sum(core.l1.hits for core in cores)
            l1_accesses = sum(core.l1.accesses for core in cores)
            mc_blocked = sum(mc.blocked_cycles for mc in mcs)
            mc_cycles = sum(mc.cycles for mc in mcs)
            dram_busy = sum(mc.dram.data_busy_cycles for mc in mcs)
            dram_pending = sum(mc.dram.pending_cycles for mc in mcs)
            row_hits = sum(mc.dram.row_hits for mc in mcs)
            row_total = sum(mc.dram.row_hits + mc.dram.row_misses
                            for mc in mcs)
            l2_hits = sum(mc.l2.hits for mc in mcs)
            l2_accesses = sum(mc.l2.accesses for mc in mcs)
        return _Snapshot(
            core_cycles=self.core_cycle,
            retired=retired,
            icnt_cycles=self.icnt_cycle,
            bytes_ejected=bytes_ejected,
            mc_inj_flits=mc_flits,
            mc_inj_bytes=mc_bytes,
            mc_blocked=mc_blocked,
            mc_cycles=mc_cycles,
            net_latency_sum=net_lat,
            packet_latency_sum=packet_lat,
            packets=packets,
            dram_busy=dram_busy,
            dram_pending=dram_pending,
            dram_row_hits=row_hits,
            dram_row_total=row_total,
            l1_hits=l1_hits,
            l1_accesses=l1_accesses,
            l2_hits=l2_hits,
            l2_accesses=l2_accesses,
            crossbar_traversals=sum(net.stats.crossbar_traversals
                                    for net in nets),
            buffer_reads=sum(net.stats.buffer_reads for net in nets),
            buffer_writes=sum(net.stats.buffer_writes for net in nets),
            link_flit_hops=sum(net.stats.link_flit_hops for net in nets),
            flits_injected=sum(net.stats.flits_injected for net in nets),
            flits_ejected=sum(net.stats.flits_ejected for net in nets),
            latency_hist=latency_hist,
        )

    def _result(self, before: _Snapshot, after: _Snapshot,
                label: Optional[str]) -> SimulationResult:
        d_core = after.core_cycles - before.core_cycles
        d_icnt = after.icnt_cycles - before.icnt_cycles
        d_retired = after.retired - before.retired
        d_packets = after.packets - before.packets
        num_nodes = len(self.mc_coords) + len(self.compute_coords)
        d_mc_cycles = after.mc_cycles - before.mc_cycles

        def rate(num, den):
            return num / den if den else 0.0

        window_hist = after.latency_hist.delta(before.latency_hist)
        tail = window_hist.summary()
        return SimulationResult(
            benchmark=self.kernel.profile.abbr,
            network=label if label is not None else getattr(
                getattr(self.network, "design", None), "name",
                type(self.network).__name__),
            icnt_cycles=d_icnt,
            core_cycles=d_core,
            retired_scalar=d_retired,
            ipc=rate(d_retired, d_core),
            accepted_bytes_per_cycle_per_node=rate(
                after.bytes_ejected - before.bytes_ejected,
                d_icnt * num_nodes),
            mc_injection_rate_flits=rate(
                after.mc_inj_flits - before.mc_inj_flits,
                d_icnt * len(self.mc_coords)),
            mc_injection_rate_bytes=rate(
                after.mc_inj_bytes - before.mc_inj_bytes,
                d_icnt * len(self.mc_coords)),
            mc_stall_fraction=rate(after.mc_blocked - before.mc_blocked,
                                   d_mc_cycles),
            mean_network_latency=rate(
                after.net_latency_sum - before.net_latency_sum, d_packets),
            mean_packet_latency=rate(
                after.packet_latency_sum - before.packet_latency_sum,
                d_packets),
            dram_efficiency=rate(after.dram_busy - before.dram_busy,
                                 after.dram_pending - before.dram_pending),
            dram_row_hit_rate=rate(
                after.dram_row_hits - before.dram_row_hits,
                after.dram_row_total - before.dram_row_total),
            l1_hit_rate=rate(after.l1_hits - before.l1_hits,
                             after.l1_accesses - before.l1_accesses),
            l2_hit_rate=rate(after.l2_hits - before.l2_hits,
                             after.l2_accesses - before.l2_accesses),
            latency_min=tail["min"],
            latency_max=tail["max"],
            latency_p50=tail["p50"],
            latency_p95=tail["p95"],
            latency_p99=tail["p99"],
            crossbar_traversals=(after.crossbar_traversals
                                 - before.crossbar_traversals),
            buffer_reads=after.buffer_reads - before.buffer_reads,
            buffer_writes=after.buffer_writes - before.buffer_writes,
            link_flit_hops=after.link_flit_hops - before.link_flit_hops,
            flits_injected=after.flits_injected - before.flits_injected,
            flits_ejected=after.flits_ejected - before.flits_ejected,
        )


# -----------------------------------------------------------------------------
# Chip factories
# -----------------------------------------------------------------------------

def build_chip(profile: BenchmarkProfile,
               design: Optional[NetworkDesign] = None,
               network=None,
               config: Optional[ChipConfig] = None,
               seed: int = 11,
               instructions_per_warp: Optional[int] = None) -> Accelerator:
    """Assemble a full chip around a mesh design or an ideal network.

    Exactly one of ``design`` / ``network`` must be given.  Ideal networks
    have no placement, so the baseline top-bottom MC coordinates are used
    for node identity.
    """
    if (design is None) == (network is None):
        raise ValueError("give exactly one of design= or network=")
    config = config if config is not None else paper_config()
    kernel = SyntheticKernel(profile, seed=seed,
                             instructions_per_warp=instructions_per_warp)
    if design is not None:
        system = build(design, Mesh(config.mesh_cols, config.mesh_rows),
                       num_mcs=config.num_memory_channels, seed=seed)
        accel = Accelerator(system, system.mc_nodes, system.compute_nodes,
                            kernel, config)
        if design.check_interval:
            # The per-network checkers are already armed by build(); add
            # the system-level request-conservation audit at the same
            # cadence.
            accel.enable_checks(design.check_interval)
        return accel
    mesh = Mesh(config.mesh_cols, config.mesh_rows)
    mcs = top_bottom_placement(mesh, config.num_memory_channels)
    return Accelerator(network, mcs, compute_nodes(mesh, mcs), kernel,
                       config)


def perfect_chip(profile: BenchmarkProfile,
                 config: Optional[ChipConfig] = None,
                 seed: int = 11) -> Accelerator:
    """Closed loop with the zero-latency infinite-bandwidth NoC (Figure 7)."""
    return build_chip(profile, network=PerfectNetwork(), config=config,
                      seed=seed)


def bandwidth_capped_chip(profile: BenchmarkProfile, flits_per_cycle: float,
                          config: Optional[ChipConfig] = None,
                          seed: int = 11) -> Accelerator:
    """Closed loop with the zero-latency bandwidth-capped NoC (Figure 6)."""
    return build_chip(profile,
                      network=BandwidthLimitedNetwork(flits_per_cycle),
                      config=config, seed=seed)
