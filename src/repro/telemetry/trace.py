"""Per-hop packet lifetime tracing.

The tracer observes the event points wired through the NoC —

* ``on_offer``     — accepted into a source queue (``packet.created``
  already holds the creation stamp; the offer marks which network slice).
* ``on_hop_arrive``— head flit buffered at a router input.
* ``on_vc_alloc``  — output VC granted at that router.
* ``on_switch``    — head flit traverses the crossbar toward its output.
* ``on_link``      — any flit enters a mesh channel (per-link accounting).
* ``on_eject``     — tail flit reassembled at the destination.

— and decomposes each packet's latency into a *telescoping* sum of
components that add up **exactly** to ``packet.latency``:

* ``queue``         = injected − created (source-queue wait),
* per hop ``vc_wait``     = vc_alloc − arrive (route + VC allocation wait),
* per hop ``switch_wait`` = switch − vc_alloc (switch allocation + credit
  stalls; includes the router pipeline),
* per hop ``channel``     = next hop's arrive − this hop's switch,
* ``serialization`` = ejected − last switch (body flits draining through
  the ejection port),
* ``inject_wait``   = first arrive − injected (0 in the current model; kept
  so the telescoping identity is structural, not coincidental).

Everything is read-only: the tracer never touches packets, flits or router
state, so simulation results are bit-identical with tracing on or off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..noc.packet import Packet, TrafficClass
from ..noc.topology import Coord

#: Component keys in presentation order.
COMPONENTS = ("queue", "inject_wait", "vc_wait", "switch_wait", "channel",
              "serialization")


class HopRecord:
    """Timing of one packet's head flit through one router."""

    __slots__ = ("coord", "in_port", "arrive", "vc_alloc", "switch",
                 "out_port", "out_vc")

    def __init__(self, coord: Coord, in_port, arrive: int) -> None:
        self.coord = coord
        self.in_port = in_port
        self.arrive = arrive
        self.vc_alloc: Optional[int] = None
        self.switch: Optional[int] = None
        self.out_port = None
        self.out_vc: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.vc_alloc is not None and self.switch is not None


class PacketTrace:
    """Full lifetime record of one packet."""

    __slots__ = ("pid", "network", "tclass", "src", "dest", "size_bytes",
                 "group", "created", "injected", "ejected", "hops")

    def __init__(self, packet: Packet, network, cycle: int) -> None:
        mesh = network.mesh
        self.pid = packet.pid
        self.network = network.name
        self.tclass = packet.traffic_class
        self.src = mesh.coord(packet.src)
        self.dest = mesh.coord(packet.dest)
        self.size_bytes = packet.size_bytes
        self.group = packet.group
        self.created = packet.created
        self.injected = -1
        self.ejected = -1
        self.hops: List[HopRecord] = []

    @property
    def latency(self) -> int:
        return self.ejected - self.created

    @property
    def network_latency(self) -> int:
        return self.ejected - self.injected

    @property
    def num_hops(self) -> int:
        return len(self.hops)

    def components(self) -> Dict[str, int]:
        """Latency decomposition; the values sum exactly to
        :attr:`latency` (pinned by tests)."""
        hops = self.hops
        parts = {
            "queue": self.injected - self.created,
            "inject_wait": hops[0].arrive - self.injected,
            "vc_wait": 0,
            "switch_wait": 0,
            "channel": 0,
            "serialization": self.ejected - hops[-1].switch,
        }
        for i, hop in enumerate(hops):
            parts["vc_wait"] += hop.vc_alloc - hop.arrive
            parts["switch_wait"] += hop.switch - hop.vc_alloc
            if i + 1 < len(hops):
                parts["channel"] += hops[i + 1].arrive - hop.switch
        return parts

    def to_json(self) -> dict:
        """One JSONL trace row (schema pinned by tests)."""
        from .export import coord_key
        return {
            "pid": self.pid,
            "network": self.network,
            "class": self.tclass.name,
            "src": coord_key(self.src),
            "dest": coord_key(self.dest),
            "bytes": self.size_bytes,
            "created": self.created,
            "injected": self.injected,
            "ejected": self.ejected,
            "latency": self.latency,
            "network_latency": self.network_latency,
            "hops": [{
                "router": coord_key(hop.coord),
                "arrive": hop.arrive,
                "vc_alloc": hop.vc_alloc,
                "switch": hop.switch,
                "out_vc": hop.out_vc,
            } for hop in self.hops],
            "components": self.components(),
        }


class _Aggregate:
    """Running component sums for one (class) or (route) bucket."""

    __slots__ = ("packets", "latency_sum", "network_latency_sum", "hops_sum",
                 "component_sums")

    def __init__(self) -> None:
        self.packets = 0
        self.latency_sum = 0
        self.network_latency_sum = 0
        self.hops_sum = 0
        self.component_sums = {key: 0 for key in COMPONENTS}

    def add(self, trace: PacketTrace, components: Dict[str, int]) -> None:
        self.packets += 1
        self.latency_sum += trace.latency
        self.network_latency_sum += trace.network_latency
        self.hops_sum += trace.num_hops
        sums = self.component_sums
        for key, value in components.items():
            sums[key] += value

    def to_json(self) -> dict:
        n = self.packets
        return {
            "packets": n,
            "mean_latency": self.latency_sum / n if n else 0.0,
            "mean_network_latency":
                self.network_latency_sum / n if n else 0.0,
            "mean_hops": self.hops_sum / n if n else 0.0,
            "mean_components": {key: value / n if n else 0.0
                                for key, value in
                                self.component_sums.items()},
        }


class PacketTracer:
    """Collects per-hop traces plus per-class / per-route aggregates.

    Completed traces are retained up to ``max_traces`` (aggregates keep
    counting beyond that; ``dropped_traces`` records how many full traces
    were discarded, so truncation is never silent).
    """

    def __init__(self, max_traces: int = 100_000) -> None:
        self.max_traces = max_traces
        self.live: Dict[int, PacketTrace] = {}
        self.completed: List[PacketTrace] = []
        self.dropped_traces = 0
        #: Packets ejected with an incomplete hop record (offered before
        #: the tracer attached); excluded from aggregates.
        self.incomplete = 0
        self.per_class: Dict[TrafficClass, _Aggregate] = {}
        self.per_route: Dict[Tuple[Coord, Coord, TrafficClass],
                             _Aggregate] = {}
        #: (src coord, dst coord) -> [flits by protocol class index].
        self.link_flits: Dict[Tuple[Coord, Coord], List[int]] = {}

    # -- event points (called from the NoC hot path) -------------------------

    def on_offer(self, packet: Packet, network, cycle: int) -> None:
        self.live[packet.pid] = PacketTrace(packet, network, cycle)

    def on_hop_arrive(self, packet: Packet, coord: Coord, in_port,
                      cycle: int) -> None:
        trace = self.live.get(packet.pid)
        if trace is not None:
            if not trace.hops:
                trace.injected = packet.injected
            trace.hops.append(HopRecord(coord, in_port, cycle))

    def on_vc_alloc(self, packet: Packet, coord: Coord, out_port,
                    out_vc: int, cycle: int) -> None:
        trace = self.live.get(packet.pid)
        if trace is not None and trace.hops:
            hop = trace.hops[-1]
            hop.vc_alloc = cycle
            hop.out_port = out_port
            hop.out_vc = out_vc

    def on_switch(self, packet: Packet, coord: Coord, out_port,
                  cycle: int) -> None:
        trace = self.live.get(packet.pid)
        if trace is not None and trace.hops:
            trace.hops[-1].switch = cycle

    def on_link(self, channel, flit, cycle: int) -> None:
        key = (channel.src_router.coord, channel.dst_router.coord)
        counts = self.link_flits.get(key)
        if counts is None:
            counts = self.link_flits[key] = [0, 0]
        counts[flit.packet.traffic_class] += 1

    def on_eject(self, packet: Packet, cycle: int) -> None:
        trace = self.live.pop(packet.pid, None)
        if trace is None:
            return
        if not trace.hops or not all(hop.complete for hop in trace.hops):
            self.incomplete += 1
            return
        trace.ejected = cycle
        components = trace.components()
        self._aggregate_class(trace.tclass).add(trace, components)
        self._aggregate_route(trace).add(trace, components)
        if len(self.completed) < self.max_traces:
            self.completed.append(trace)
        else:
            self.dropped_traces += 1

    # -- aggregation ---------------------------------------------------------

    def _aggregate_class(self, tclass: TrafficClass) -> _Aggregate:
        agg = self.per_class.get(tclass)
        if agg is None:
            agg = self.per_class[tclass] = _Aggregate()
        return agg

    def _aggregate_route(self, trace: PacketTrace) -> _Aggregate:
        key = (trace.src, trace.dest, trace.tclass)
        agg = self.per_route.get(key)
        if agg is None:
            agg = self.per_route[key] = _Aggregate()
        return agg

    @property
    def traced_packets(self) -> int:
        """Completed packets folded into the aggregates."""
        return sum(agg.packets for agg in self.per_class.values())

    def summary(self) -> dict:
        """Aggregate view for the run summary (JSON-compatible)."""
        from .export import coord_key, link_key
        routes = sorted(self.per_route.items(),
                        key=lambda item: (-item[1].packets,
                                          item[0][0], item[0][1],
                                          item[0][2]))
        return {
            "traced_packets": self.traced_packets,
            "retained_traces": len(self.completed),
            "dropped_traces": self.dropped_traces,
            "incomplete": self.incomplete,
            "per_class": {tclass.name: agg.to_json()
                          for tclass, agg in sorted(self.per_class.items())},
            "per_route": [{
                "src": coord_key(src), "dest": coord_key(dest),
                "class": tclass.name, **agg.to_json(),
            } for (src, dest, tclass), agg in routes],
            "link_flits": {
                link_key(src, dst): {
                    TrafficClass.REQUEST.name: counts[0],
                    TrafficClass.REPLY.name: counts[1],
                }
                for (src, dst), counts in sorted(self.link_flits.items())
            },
        }
