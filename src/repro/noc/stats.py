"""Network statistics: latency, throughput and per-node injection rates."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List

from .histogram import StreamingHistogram, merge_histograms
from .packet import Packet, TrafficClass


@dataclass
class _ClassStats:
    packets: int = 0
    flits: int = 0
    latency_sum: int = 0
    network_latency_sum: int = 0
    latency_hist: StreamingHistogram = field(
        default_factory=StreamingHistogram)
    network_latency_hist: StreamingHistogram = field(
        default_factory=StreamingHistogram)

    def mean_latency(self) -> float:
        return self.latency_sum / self.packets if self.packets else 0.0

    def mean_network_latency(self) -> float:
        return self.network_latency_sum / self.packets if self.packets else 0.0


class NetworkStats:
    """Counters kept by each network (and by the ideal-network models).

    ``num_nodes`` sizes the per-node flit counters, which are indexed by
    node id: a mesh network gives its node count, and the records grow
    them to cover any other node id."""

    def __init__(self, num_nodes: int = 0) -> None:
        self.cycles = 0
        #: Accepted by ``try_inject`` — includes packets still parked in a
        #: source FIFO, which ``*_injected`` (recorded at source-drain
        #: time) does not see.  The gap is the backpressure the Figure 11
        #: MC-stall analysis needs to distinguish queued from in-network
        #: traffic.
        self.packets_offered = 0
        self.flits_offered = 0
        self.flits_injected = 0
        self.flits_ejected = 0
        self.packets_injected = 0
        self.packets_ejected = 0
        #: Always-on per-component activity counters for the power model
        #: (DESIGN.md §17).  Pure integer accounting over quantities every
        #: stepper already computes, so keeping them on cannot perturb
        #: results: a crossbar traversal is a switch-allocation grant
        #: (every flit popped from an input VC, including ejection), a
        #: buffer read accompanies each traversal, a buffer write is a
        #: flit landing in a router input VC (source drain or channel
        #: delivery), and a link flit-hop is one flit delivered over one
        #: channel (credits excluded).
        self.crossbar_traversals = 0
        self.buffer_reads = 0
        self.buffer_writes = 0
        self.link_flit_hops = 0
        self.per_class: Dict[TrafficClass, _ClassStats] = {
            TrafficClass.REQUEST: _ClassStats(),
            TrafficClass.REPLY: _ClassStats(),
        }
        #: Flits injected and ejected at each node id: ``array('q')``s,
        #: which the compiled NoC kernel increments in place.
        self.node_injected_flits = array("q", bytes(8 * num_nodes))
        self.node_ejected_flits = array("q", bytes(8 * num_nodes))
        #: Per-slice source stats when this instance was produced by
        #: :func:`merge_stats`; empty for a plain single network.  Rate
        #: methods consult it so that slices measured over different cycle
        #: counts are aggregated per slice rather than dividing summed
        #: counters by ``max(cycles)``.
        self._slice_stats: List["NetworkStats"] = []

    def cover(self, node: int) -> None:
        """Grow the per-node counters to hold node id ``node``."""
        for flits in (self.node_injected_flits, self.node_ejected_flits):
            flits.frombytes(bytes(8 * max(0, node + 1 - len(flits))))

    # -- recording ----------------------------------------------------------

    def record_offer(self, packet: Packet, num_flits: int) -> None:
        """A packet was accepted into a source queue (may not yet have
        entered the network)."""
        self.packets_offered += 1
        self.flits_offered += num_flits

    def record_injection(self, packet: Packet, num_flits: int) -> None:
        self.packets_injected += 1
        self.flits_injected += num_flits
        if packet.src >= len(self.node_injected_flits):
            self.cover(packet.src)
        self.node_injected_flits[packet.src] += num_flits

    def record_ejection(self, packet: Packet, num_flits: int) -> None:
        self.packets_ejected += 1
        self.flits_ejected += num_flits
        cs = self.per_class[packet.traffic_class]
        cs.packets += 1
        cs.flits += num_flits
        cs.latency_sum += packet.latency
        cs.network_latency_sum += packet.network_latency
        cs.latency_hist.add(packet.latency)
        cs.network_latency_hist.add(packet.network_latency)
        if packet.dest >= len(self.node_ejected_flits):
            self.cover(packet.dest)
        self.node_ejected_flits[packet.dest] += num_flits

    # -- derived metrics ----------------------------------------------------

    @property
    def packets_in_flight(self) -> int:
        return self.packets_injected - self.packets_ejected

    @property
    def packets_source_queued(self) -> int:
        """Packets accepted but still parked in a source FIFO."""
        return self.packets_offered - self.packets_injected

    @property
    def flits_source_queued(self) -> int:
        """Flits of packets accepted but not yet draining into a router."""
        return self.flits_offered - self.flits_injected

    @property
    def packets_outstanding(self) -> int:
        """Everything accepted and not yet delivered: source-queued plus
        in-network."""
        return self.packets_offered - self.packets_ejected

    def mean_packet_latency(self) -> float:
        packets = sum(c.packets for c in self.per_class.values())
        if not packets:
            return 0.0
        total = sum(c.latency_sum for c in self.per_class.values())
        return total / packets

    def mean_network_latency(self) -> float:
        packets = sum(c.packets for c in self.per_class.values())
        if not packets:
            return 0.0
        total = sum(c.network_latency_sum for c in self.per_class.values())
        return total / packets

    def latency_histogram(self, network_only: bool = False
                          ) -> StreamingHistogram:
        """All-class latency distribution (a fresh merged copy).

        ``network_only`` selects network latency (injection to ejection)
        instead of full packet latency (creation to ejection)."""
        return merge_histograms(
            (cs.network_latency_hist if network_only else cs.latency_hist)
            for cs in self.per_class.values())

    def latency_summary(self, network_only: bool = False) -> Dict[str, float]:
        """count / min / max / p50 / p95 / p99 over all ejected packets."""
        return self.latency_histogram(network_only).summary()

    def accepted_flit_rate(self) -> float:
        """Ejected flits per cycle, summed over all nodes.

        For merged sliced stats whose slices ran different cycle counts the
        rate is the sum of per-slice rates (see :func:`merge_stats`)."""
        slices = self._slice_stats
        if slices and any(s.cycles != self.cycles for s in slices):
            return sum(s.accepted_flit_rate() for s in slices)
        return self.flits_ejected / self.cycles if self.cycles else 0.0

    def injection_rate(self, node: int) -> float:
        """Injected flits per cycle at node id ``node`` (per-slice aware,
        like :meth:`accepted_flit_rate`)."""
        slices = self._slice_stats
        if slices and any(s.cycles != self.cycles for s in slices):
            return sum(s.injection_rate(node) for s in slices)
        if not self.cycles:
            return 0.0
        flits = self.node_injected_flits
        return (flits[node] if node < len(flits) else 0) / self.cycles

    def mean_injection_rate(self, nodes: List[int]) -> float:
        if not nodes:
            return 0.0
        return sum(self.injection_rate(n) for n in nodes) / len(nodes)


def merge_stats(stats_list: List[NetworkStats]) -> NetworkStats:
    """Aggregate statistics across the sub-networks of a sliced design.

    Contract: counters (packets, flits, latency sums, per-node flit counts)
    are summed; ``cycles`` is the **master clock** — ``max`` across slices —
    because the slices of a double network advance in lockstep and their
    cycle counts are equal in every normal run.  When they are *not* equal
    (merging stats windows of different lengths), dividing summed flit
    counters by one slice's cycles would misstate the rates, so the merged
    instance keeps the per-slice stats and :meth:`NetworkStats.\
accepted_flit_rate` / :meth:`NetworkStats.injection_rate` switch to summing
    per-slice rates in that case.  The equal-cycles case deliberately keeps
    the single-division arithmetic so merged rates stay bit-identical to
    historical outputs (``a/c + b/c != (a+b)/c`` in floating point).
    """
    merged = NetworkStats(max((len(stats.node_injected_flits)
                               for stats in stats_list), default=0))
    for stats in stats_list:
        merged.cycles = max(merged.cycles, stats.cycles)
        merged.packets_offered += stats.packets_offered
        merged.flits_offered += stats.flits_offered
        merged.flits_injected += stats.flits_injected
        merged.flits_ejected += stats.flits_ejected
        merged.packets_injected += stats.packets_injected
        merged.packets_ejected += stats.packets_ejected
        merged.crossbar_traversals += stats.crossbar_traversals
        merged.buffer_reads += stats.buffer_reads
        merged.buffer_writes += stats.buffer_writes
        merged.link_flit_hops += stats.link_flit_hops
        for tclass, cs in stats.per_class.items():
            target = merged.per_class[tclass]
            target.packets += cs.packets
            target.flits += cs.flits
            target.latency_sum += cs.latency_sum
            target.network_latency_sum += cs.network_latency_sum
            target.latency_hist.merge(cs.latency_hist)
            target.network_latency_hist.merge(cs.network_latency_hist)
        for node, flits in enumerate(stats.node_injected_flits):
            merged.node_injected_flits[node] += flits
        for node, flits in enumerate(stats.node_ejected_flits):
            merged.node_ejected_flits[node] += flits
    merged._slice_stats = list(stats_list)
    return merged
