"""Open-loop latency-versus-load harness (Figure 21).

Compute nodes inject 1-flit read requests following a Bernoulli process;
each MC injects a 4-flit read reply for every request it receives.  Source
queues are unbounded, so queueing delay at a saturated source shows up as
packet latency — the classic open-loop load-latency curve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .histogram import StreamingHistogram
from .invariants import InvariantViolation, audit_system, format_system_state
from .packet import (READ_REPLY_BYTES, READ_REQUEST_BYTES, Packet,
                     TrafficClass)
from .topology import Coord
from .traffic import DestinationPattern


@dataclass
class LoadLatencyPoint:
    """One point on a load-latency curve."""

    offered_rate: float          # request flits / cycle / compute node
    mean_latency: float          # cycles, all packets, source queue included
    mean_request_latency: float
    mean_reply_latency: float
    accepted_flits_per_cycle: float
    packets_measured: int
    saturated: bool
    # Latency tail over measured packets (Figure 9 curves can report tails,
    # not just means).  Defaults keep old serialized payloads loadable.
    latency_min: float = 0.0
    latency_max: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    # Per-component activity totals over the whole run (warmup + measure),
    # summed across slices — inputs to the repro.power model.  Defaults
    # keep old serialized payloads loadable.
    cycles: int = 0
    crossbar_traversals: int = 0
    buffer_reads: int = 0
    buffer_writes: int = 0
    link_flit_hops: int = 0
    flits_injected: int = 0
    flits_ejected: int = 0

    def to_json(self) -> dict:
        """JSON-compatible dict (``inf`` latencies included); floats
        round-trip exactly for the parallel harness's transport and cache."""
        from dataclasses import asdict
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "LoadLatencyPoint":
        """Inverse of :meth:`to_json` with field-for-field equality."""
        return cls(**data)


class OpenLoopRunner:
    """Drives one network instance at one offered load.

    The nodes and the pattern are given by coordinate; the runner
    injects by node id (``Mesh.index`` on the network's mesh), drawing
    from a relabelled copy of the pattern."""

    def __init__(self, network, compute_nodes: Sequence[Coord],
                 mc_nodes: Sequence[Coord], pattern: DestinationPattern,
                 rate: float, seed: int = 7,
                 saturation_latency: float = 300.0,
                 telemetry=None) -> None:
        self.network = network
        index = network.mesh.index
        self.compute_nodes = [index(node) for node in compute_nodes]
        self.mc_nodes = [index(node) for node in mc_nodes]
        self.pattern = pattern.relabel(index)
        self.rate = rate
        self.saturation_latency = saturation_latency
        self._rng = random.Random(seed)
        self._measuring = False
        self._lat_sum = {TrafficClass.REQUEST: 0, TrafficClass.REPLY: 0}
        self._lat_count = {TrafficClass.REQUEST: 0, TrafficClass.REPLY: 0}
        self._lat_hist = StreamingHistogram()
        self._measure_start = 0
        #: Opt-in :class:`repro.telemetry.TelemetryHub`; its hooks are
        #: read-only, so results are bit-identical with it on or off.
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach_network(network)
        for mc in self.mc_nodes:
            network.set_ejection_handler(mc, self._on_request)
        for core in self.compute_nodes:
            network.set_ejection_handler(core, self._record)

    # -- handlers ------------------------------------------------------------

    def _on_request(self, packet: Packet, cycle: int) -> None:
        self._record(packet, cycle)
        # ``read_reply`` unrolled, as ``_cycle`` unrolls ``read_request``.
        reply = Packet(packet.dest, packet.src, READ_REPLY_BYTES,
                       TrafficClass.REPLY, cycle, payload=packet.payload)
        accepted = self.network.try_inject(reply, cycle)
        if not accepted:
            raise RuntimeError("open-loop source queues must be unbounded\n"
                               + format_system_state(self.network))

    def _record(self, packet: Packet, cycle: int) -> None:
        """Ejection handler of the compute nodes (and the first step of
        the MCs'): a measured packet's latency."""
        if not self._measuring or packet.payload != "measured":
            return
        self._lat_sum[packet.traffic_class] += packet.latency
        self._lat_count[packet.traffic_class] += 1
        self._lat_hist.add(packet.latency)

    # -- driving -------------------------------------------------------------

    def run(self, warmup: int = 2_000,
            measure: int = 6_000) -> LoadLatencyPoint:
        for _ in range(warmup):
            self._cycle(tag=None)
        self._measuring = True
        self._measure_start = self.network.cycle
        for _ in range(measure):
            self._cycle(tag="measured")
        self._final_audit()
        return self._summarize(measure)

    def _final_audit(self) -> None:
        """If the design enabled self-checks, audit the end state once more
        — per-cycle checks run inside ``network.step`` already, but this
        catches a violation introduced after the last periodic audit."""
        networks = getattr(self.network, "networks", [self.network])
        if not any(getattr(net, "checker", None) is not None
                   and net.checker.check_interval
                   for net in networks):
            return
        problems = audit_system(self.network)
        if problems:
            raise InvariantViolation(
                "open-loop end-state audit failed:\n  - "
                + "\n  - ".join(problems) + "\n"
                + format_system_state(self.network))

    def _cycle(self, tag: Optional[str]) -> None:
        """One cycle: Bernoulli injection at every compute node, then the
        network's step.  With ``telemetry`` attached, both are timed and
        the per-cycle hook runs last."""
        telemetry = self.telemetry
        if telemetry is not None:
            profiler = telemetry.profiler
            t = profiler.clock()
        net = self.network
        cycle = net.cycle
        rng = self._rng
        rand = rng.random
        rate = self.rate
        pick = self.pattern.pick
        inject = net.try_inject
        # ``read_request`` unrolled: the wrapper is one call frame per
        # injection attempt, and this loop dominates the harness.
        make = Packet
        size = READ_REQUEST_BYTES
        tclass = TrafficClass.REQUEST
        for core in self.compute_nodes:
            if rand() < rate:
                dest = pick(core, rng)
                inject(make(core, dest, size, tclass, cycle, payload=tag),
                       cycle)
        if telemetry is not None:
            t = profiler.add_since("injection", t)
        net.step()
        if telemetry is not None:
            t = profiler.add_since("network", t)
            telemetry.on_cycle(net.cycle)
            profiler.add_since("telemetry", t)

    def _summarize(self, measure: int) -> LoadLatencyPoint:
        req_n = self._lat_count[TrafficClass.REQUEST]
        rep_n = self._lat_count[TrafficClass.REPLY]
        total_n = req_n + rep_n
        total = (self._lat_sum[TrafficClass.REQUEST]
                 + self._lat_sum[TrafficClass.REPLY])
        mean = total / total_n if total_n else float("inf")
        mean_req = (self._lat_sum[TrafficClass.REQUEST] / req_n
                    if req_n else float("inf"))
        mean_rep = (self._lat_sum[TrafficClass.REPLY] / rep_n
                    if rep_n else float("inf"))
        stats = self.network.stats
        accepted = stats.accepted_flit_rate()  # per-slice aware
        # Saturation shows either as latency blow-up or as a growing backlog
        # (packets that never complete inside the measurement window).
        backlog = stats.packets_injected - stats.packets_ejected
        backlogged = stats.packets_injected > 0 and (
            backlog > 0.2 * stats.packets_injected)
        tail = self._lat_hist.summary()
        return LoadLatencyPoint(
            offered_rate=self.rate,
            mean_latency=mean,
            mean_request_latency=mean_req,
            mean_reply_latency=mean_rep,
            accepted_flits_per_cycle=accepted,
            packets_measured=total_n,
            saturated=mean > self.saturation_latency
            or mean_rep > self.saturation_latency     # reply path saturated
            or backlogged or rep_n == 0,
            latency_min=tail["min"],
            latency_max=tail["max"],
            latency_p50=tail["p50"],
            latency_p95=tail["p95"],
            latency_p99=tail["p99"],
            cycles=stats.cycles,
            crossbar_traversals=stats.crossbar_traversals,
            buffer_reads=stats.buffer_reads,
            buffer_writes=stats.buffer_writes,
            link_flit_hops=stats.link_flit_hops,
            flits_injected=stats.flits_injected,
            flits_ejected=stats.flits_ejected,
        )


def sweep_load(network_factory, compute_nodes: Sequence[Coord],
               mc_nodes: Sequence[Coord], pattern_factory, rates,
               warmup: int = 2_000, measure: int = 6_000,
               seed: int = 7) -> List[LoadLatencyPoint]:
    """Run a load sweep, building a fresh network per offered rate.

    ``network_factory`` returns a new network instance; ``pattern_factory``
    maps the MC node list to a :class:`DestinationPattern`.
    """
    points = []
    for rate in rates:
        network = network_factory()
        runner = OpenLoopRunner(network, compute_nodes, mc_nodes,
                                pattern_factory(mc_nodes), rate, seed=seed)
        points.append(runner.run(warmup=warmup, measure=measure))
    return points
