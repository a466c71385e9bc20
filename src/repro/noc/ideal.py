"""Ideal network models used in the paper's limit studies.

* :class:`PerfectNetwork` — zero latency, infinite bandwidth (Figure 7's
  "perfect interconnection network").
* :class:`BandwidthLimitedNetwork` — zero latency once a flit is accepted,
  but a global cap on flits accepted per cycle (Figure 6's limit study).
  Multiple sources may transmit to one destination in a single cycle and a
  source may send multiple flits per cycle, exactly as described in
  Section III-A.

Both expose the same interface as :class:`repro.noc.network.MeshNetwork`
(``try_inject`` / ``step`` / ``set_ejection_handler`` / ``stats``) so the
closed-loop simulator can swap them in for the real mesh.

Compiled.  When a chip's compiled side starts (its first step) on a
network of exactly one of these two classes that no chip has taken over
and that is empty, the chip-side extension (``gpu/_core_kernel.c``, the
``Ideal`` object) takes the network over with the core cluster and the
memory side: packets become records there, and the chip steps the
network with one kernel call per cycle, with no Python packet, handler or
``try_inject`` call (see :meth:`_IdealBase._compile`).  The network's
counters, clock and queue then live in the kernel.  Reading ``stats``
first exports the counters, if the kernel has changed them since the
last read; ``cycle`` and ``idle`` read the kernel; ``queued_packets``
builds the packets its queued records stand for.  The Python ``step``
and ``try_inject`` below stay the oracle: reference chips, standalone
use, and a network that cannot be taken over (the chip then runs the
reference).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional

from .packet import (READ_REPLY_BYTES, READ_REQUEST_BYTES,
                     WRITE_REQUEST_BYTES, Packet, TrafficClass, flit_count,
                     read_reply, read_request, write_request)
from .stats import NetworkStats

#: Kinds of the kernel's packet records (mirror ``_core_kernel.c``).
_READ, _WRITE, _REPLY = range(3)


def _packet(token, coords, nodes, ncores, record) -> Packet:
    """The packet a kernel ``record`` (kind, core, MC, line, local address,
    created, injected, ejected) stands for, as the reference builds it;
    ``coords`` and ``nodes`` are the cores' coords and node ids, then the
    MCs'."""
    kind, core, mc, line, local, created, injected, ejected = record
    mc += ncores
    payload = token(coords[core], line, local)
    if kind == _REPLY:
        packet = read_reply(nodes[mc], nodes[core], created, payload)
    else:
        make = read_request if kind == _READ else write_request
        packet = make(nodes[core], nodes[mc], created, payload)
    packet.injected = injected
    packet.ejected = ejected
    return packet


class _IdealBase:
    """Shared bookkeeping for the ideal-network models."""

    def __init__(self, channel_width: int = 16) -> None:
        self.channel_width = channel_width
        self._cycle = 0
        self._stats = NetworkStats()
        #: Packets accepted and not yet delivered, in delivery order.
        self._queue: Deque[Packet] = deque()
        self._handlers: Dict[int, Callable[[Packet, int], None]] = {}
        #: The kernel's ``Ideal`` once a chip has taken this network over,
        #: with the builder of the packets its records stand for and the
        #: node ids its counters are kept by; None before.
        self._kernel = None
        self._packet: Optional[Callable[[tuple], Packet]] = None
        self._nodes: tuple = ()

    def set_ejection_handler(self, node: int,
                             handler: Callable[[Packet, int], None]) -> None:
        """Deliver the packets addressed to node id ``node`` to
        ``handler``.  This network has no mesh: its per-node counters
        grow to cover every node named here or by a packet."""
        self._handlers[node] = handler
        self._stats.cover(node)

    def carries(self, packet: Packet) -> bool:
        return True

    @property
    def stats(self) -> NetworkStats:
        kernel = self._kernel
        if kernel is not None and kernel.stale:
            self._export()
        return self._stats

    @property
    def cycle(self) -> int:
        kernel = self._kernel
        return self._cycle if kernel is None else kernel.cycle

    @property
    def idle(self) -> bool:
        kernel = self._kernel
        return not self._queue if kernel is None else kernel.idle()

    def queued_packets(self) -> List[Packet]:
        """The packets accepted and not yet delivered, in delivery order."""
        kernel = self._kernel
        if kernel is None:
            return list(self._queue)
        return [self._packet(record) for record in kernel.queued()]

    def try_inject(self, packet: Packet, cycle: int) -> bool:
        packet.injected = cycle
        self._stats.record_injection(
            packet, flit_count(packet.size_bytes, self.channel_width))
        self._queue.append(packet)
        return True

    def _deliver(self, packet: Packet, now: int) -> None:
        num_flits = flit_count(packet.size_bytes, self.channel_width)
        packet.ejected = now
        self._stats.record_ejection(packet, num_flits)
        handler = self._handlers.get(packet.dest)
        if handler is not None:
            handler(packet, now)

    # -- the compiled network ---------------------------------------------------

    def _claimable(self, chip) -> bool:
        """True when ``chip``'s compiled side may take this network over:
        no chip has, nothing has used it, its channel width is valid, the
        chip's MCs offer replies to it and its nodes are distinct."""
        stats = self._stats
        nodes = chip.compute_ids + chip.mc_ids
        return (self._kernel is None and self._cycle == 0 and not self._queue
                and not (stats.packets_injected or stats.packets_ejected)
                and self.channel_width > 0
                and len(set(nodes)) == len(nodes)
                and all(mc.inject == self.try_inject for mc in chip._mcs))

    def _compile(self, module, cluster, memory, chip,
                 token) -> Callable[[tuple], Packet]:
        """Hand this network to the kernel with ``chip``'s fresh
        ``cluster`` and ``memory`` side (their extension objects), whose
        requests are routed as its ``address_map`` routes them; ``token``
        is the payload type.  Returns the builder of the packets the
        kernel's records stand for."""
        width = self.channel_width
        histogram = self._stats.per_class[TrafficClass.REQUEST].latency_hist
        self._kernel = module.ideal(
            cluster, memory,
            (chip.address_map.interleave,
             getattr(self, "flits_per_cycle", 0.0),
             getattr(self, "_allowance", 0.0),
             flit_count(READ_REQUEST_BYTES, width),
             flit_count(WRITE_REQUEST_BYTES, width),
             flit_count(READ_REPLY_BYTES, width), histogram.linear_limit))
        self._nodes = nodes = tuple(chip.compute_ids + chip.mc_ids)
        self._packet = partial(_packet, token,
                               tuple(chip.compute_coords + chip.mc_coords),
                               nodes, len(chip.compute_ids))
        return self._packet

    def _export(self) -> None:
        """Write the kernel's clock and counters into this object."""
        stats = self._stats
        (self._cycle, allowance, stats.packets_injected, stats.flits_injected,
         stats.packets_ejected, stats.flits_ejected, classes, injected,
         ejected) = self._kernel.export()
        if hasattr(self, "_allowance"):
            self._allowance = allowance
        stats.cycles = self._cycle
        for tclass, row in zip(TrafficClass, classes):
            cs = stats.per_class[tclass]
            (cs.packets, cs.flits, cs.latency_sum, cs.network_latency_sum,
             latency, network) = row
            for histogram, (buckets, total, low, high) in (
                    (cs.latency_hist, latency),
                    (cs.network_latency_hist, network)):
                histogram.counts = dict(buckets)
                histogram.total = total
                histogram._min = low
                histogram._max = high
        for node, inj, ej in zip(self._nodes, injected, ejected):
            stats.node_injected_flits[node] = inj
            stats.node_ejected_flits[node] = ej


class PerfectNetwork(_IdealBase):
    """Zero-latency, infinite-bandwidth interconnect."""

    def step(self, cycle: Optional[int] = None) -> None:
        self._cycle = self._cycle + 1 if cycle is None else cycle
        self._stats.cycles = self._cycle
        while self._queue:
            self._deliver(self._queue.popleft(), self._cycle)


class BandwidthLimitedNetwork(_IdealBase):
    """Zero-latency interconnect with an aggregate bandwidth cap.

    ``flits_per_cycle`` is the total number of flits the network accepts per
    interconnect cycle; fractional budgets accumulate across cycles.  A
    packet is accepted only when the whole packet fits in the remaining
    budget, and is delivered instantly on acceptance.
    """

    def __init__(self, flits_per_cycle: float,
                 channel_width: int = 16) -> None:
        super().__init__(channel_width)
        if flits_per_cycle <= 0:
            raise ValueError("bandwidth cap must be positive")
        self.flits_per_cycle = flits_per_cycle
        self._allowance = 0.0

    def step(self, cycle: Optional[int] = None) -> None:
        self._cycle = self._cycle + 1 if cycle is None else cycle
        self._stats.cycles = self._cycle
        self._allowance = min(
            self._allowance + self.flits_per_cycle,
            # Never bank more than a few cycles of budget; keeps bursts
            # bounded the way a real channel would.
            4.0 * self.flits_per_cycle)
        while self._queue:
            flits = flit_count(self._queue[0].size_bytes, self.channel_width)
            if flits > self._allowance:
                break
            self._allowance -= flits
            self._deliver(self._queue.popleft(), self._cycle)
