"""Mesh network assembly and the cycle loop.

A :class:`MeshNetwork` owns routers, channels, per-node injection source
queues and packet reassembly at ejection.  The closed-loop accelerator model
and the open-loop harness both drive it through the same small interface:

* ``try_inject(packet, cycle)`` — queue a packet at its source node's
  network interface; fails (returns ``False``) when the bounded source queue
  is full, which is how memory-controller stalls (Figure 11) arise.
* ``set_ejection_handler(node, fn)`` — callback invoked with each fully
  reassembled packet addressed to node id ``node``.
* ``step(cycle)`` — advance one interconnect clock.

Every network steps through the compiled cycle kernel of a
:class:`~repro.noc.batched.BatchedCore` built at construction, which also
queues admitted packets and makes the per-packet stats records.  The
reference exhaustive scan (``REPRO_REFERENCE_STEPPER=1`` or
:meth:`MeshNetwork.use_reference_stepper`) with ``NetworkStats.record_*``
is the bit-identity oracle the kernel ports and is tested against.
"""

from __future__ import annotations

import os
import random
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .channel import Channel
from .invariants import DeadlockError, InvariantChecker, format_network_state
from .packet import Flit, Packet, flit_count
from .router import Router, RouterSpec
from .routing import RoutingAlgorithm
from .stats import NetworkStats
from .topology import Coord, Direction, Mesh, injection_port
from .vc import VcConfig


@dataclass(frozen=True)
class NocParams:
    """Physical parameters of one network (Table III)."""

    channel_width: int = 16          # bytes per flit
    vc_buffer_depth: int = 8         # flits per VC
    channel_latency: int = 1
    credit_delay: int = 1
    #: Capacity of each node's injection source queue in flits.  ``None``
    #: means unbounded (open-loop convention: queueing time is part of
    #: packet latency).  Closed-loop runs use a small bound so that a backed
    #: up reply network stalls the memory controller.
    source_queue_flits: Optional[int] = 16
    #: Run the full invariant audit every this many cycles (0 = off).
    #: Audits are read-only, so results are bit-identical with or without.
    check_interval: int = 0
    #: Raise :class:`~repro.noc.invariants.DeadlockError` with a state dump
    #: if no flit moves for this many consecutive non-idle cycles (0 = off).
    watchdog_cycles: int = 0


class _SourcePort:
    """Injection state machine for one injection port of a node.

    Writes at most one flit per cycle into the router's injection buffer,
    keeping each packet contiguous within its chosen VC.
    """

    __slots__ = ("port_id", "fifo", "flits", "vc")

    def __init__(self, port_id) -> None:
        self.port_id = port_id
        self.fifo: Deque[Packet] = deque()
        self.flits: Optional[Deque[Flit]] = None
        self.vc: Optional[int] = None


def enable_tracers(networks, tracer) -> None:
    """Attach (or detach, with ``None``) ``tracer`` on every network in
    ``networks``, or on none: attaching switches each network still on
    the compiled kernel to the reference stepper, which is idle-only, so
    a busy one raises before any network has changed."""
    if tracer is not None:
        busy = [network.name for network in networks
                if network._batched is not None and not network.idle]
        if busy:
            raise RuntimeError(
                f"network slices {busy} are busy: a tracer can only be "
                "attached while idle")
    for network in networks:
        network.enable_tracer(tracer)


class MeshNetwork:
    """A single physical 2D-mesh network."""

    def __init__(self, mesh: Mesh, specs: Dict[Coord, RouterSpec],
                 params: NocParams, vc_config: VcConfig,
                 routing: RoutingAlgorithm, seed: int = 1,
                 name: str = "net") -> None:
        self.mesh = mesh
        self.params = params
        if params.channel_width <= 0:
            raise ValueError("channel width must be positive")
        # Injection-path constants (``params`` is immutable after build).
        self._channel_width = params.channel_width
        self._source_cap = params.source_queue_flits
        self.vc_config = vc_config
        self.routing = routing
        # Bound once; never reassigned.  ``None`` marks routings whose
        # ``plan`` writes exactly the Packet routing-state defaults, so the
        # injection hot path can skip the call for freshly built packets.
        self._plan = (None if routing.plan_writes_defaults
                      else routing.plan)
        self.name = name
        self.cycle = 0
        self.stats = NetworkStats(mesh.num_nodes)
        self._rng = random.Random(seed)
        #: Ejection handler of each node id (None: packets are dropped).
        self._handlers: List[Optional[Callable[[Packet, int], None]]] = (
            [None] * mesh.num_nodes)
        self._reassembly: Dict[int, int] = {}

        #: Channels with flits or credits in flight (insertion-ordered so
        #: traversal stays deterministic); idle channels are never touched
        #: by the cycle loop.
        self._active_channels: Dict[Channel, None] = {}
        #: Total flits queued across all source ports (all nodes).
        self._source_flits = 0
        #: Total flits buffered inside routers (makes ``idle`` O(1)).
        self._buffered_flits = 0

        self._routers: Dict[Coord, Router] = {}
        self._channels: List[Channel] = []
        for coord in mesh.coords():
            spec = specs.get(coord, RouterSpec(coord))
            if spec.coord != coord:
                raise ValueError(f"spec coord {spec.coord} placed at {coord}")
            router = Router(spec, vc_config, params.vc_buffer_depth, routing)
            router.attach_ejection(sink=self)
            self._routers[coord] = router

        for coord, router in self._routers.items():
            for direction, neighbor in mesh.neighbors(coord):
                channel = Channel(params.channel_latency, params.credit_delay)
                dst = self._routers[neighbor]
                dst_port = direction.opposite()
                channel.connect(router, direction, dst, dst_port)
                channel.watch = self._wake_channel
                router.attach_output_channel(direction, channel)
                dst.attach_input_channel(dst_port, channel)
                self._channels.append(channel)

        self._router_list: Tuple[Router, ...] = tuple(self._routers.values())
        for router in self._router_list:
            router.finalize()

        #: Source-side state is indexed by node id (mesh order, equal to
        #: ``Router.net_index``).  ``_sources`` is the coord-keyed view
        #: for audits and tests.
        self._source_ports: Dict[Coord, List[_SourcePort]] = {}
        self._source_rows: List[Tuple[Coord, List[_SourcePort], Router]] = []
        #: Flits accepted and not yet drained into a router, per node.
        #: An ``array('i')`` because the compiled kernel decrements it.
        self._source_occ = array("i")
        self._source_rr: List[int] = []
        for coord in mesh.coords():
            ports = [
                _SourcePort(injection_port(k))
                for k in range(self._routers[coord].spec.num_inject_ports)
            ]
            self._source_ports[coord] = ports
            self._source_rows.append((coord, ports, self._routers[coord]))
            self._source_occ.append(0)
            self._source_rr.append(0)

        #: Compiled-kernel core driving the cycle (``repro.noc.batched``);
        #: ``None`` selects the reference exhaustive scan (the oracle:
        #: ``REPRO_REFERENCE_STEPPER=1`` at construction,
        #: ``use_reference_stepper`` while idle, or no usable compiler).
        self._batched = None
        if os.environ.get("REPRO_REFERENCE_STEPPER") != "1":
            # Imported here so ``import repro`` compiles and loads nothing.
            from .batched import BatchedCore, load_kernel
            kernel = load_kernel()
            if kernel is not None:
                self._batched = BatchedCore(self, kernel)

        #: Opt-in invariant checker; ``None`` keeps the hot path at a
        #: single attribute test per cycle.
        self.checker: Optional[InvariantChecker] = None
        #: Opt-in packet tracer (``repro.telemetry``); attached via
        #: :meth:`enable_tracer`, ``None`` keeps each event site at a
        #: single attribute test.
        self.tracer = None
        if params.check_interval or params.watchdog_cycles:
            self.enable_checks(params.check_interval,
                               params.watchdog_cycles)

    # -- public interface ---------------------------------------------------

    def set_ejection_handler(self, node: int,
                             handler: Callable[[Packet, int], None]) -> None:
        self._handlers[node] = handler

    def enable_checks(self, check_interval: int = 64,
                      watchdog_cycles: int = 0) -> InvariantChecker:
        """Attach (or retune) the runtime invariant checker."""
        self.checker = InvariantChecker(self, check_interval,
                                        watchdog_cycles)
        return self.checker

    def enable_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) a read-only per-hop packet
        tracer to this network, its routers and its channels.  Tracing
        never mutates simulation state, so results are bit-identical with
        it on or off.  The tracer needs per-hop events, which only the
        reference scan produces, so attaching one switches this network
        to the reference stepper (idle only).  Use
        :func:`enable_tracers` for several slices at once."""
        if tracer is not None and self._batched is not None:
            self.use_reference_stepper()
        self.tracer = tracer
        for router in self._router_list:
            router.tracer = tracer
        for channel in self._channels:
            channel.tracer = tracer

    def carries(self, packet: Packet) -> bool:
        return self.vc_config.carries(packet.traffic_class)

    # -- state export -------------------------------------------------------

    def export_state(self) -> None:
        """Bring the router, channel and source objects (and the flit
        counters and reassembly table) up to date with the compiled
        kernel.  Rewrites them only if the kernel has stepped or accepted
        a packet since the last export, so edits made to the objects
        survive until the next cycle; a no-op on the reference stepper,
        where the objects are the state."""
        core = self._batched
        if core is not None and core.stale:
            core.export()

    @property
    def routers(self) -> Dict[Coord, Router]:
        self.export_state()
        return self._routers

    @property
    def channels(self) -> List[Channel]:
        self.export_state()
        return self._channels

    @property
    def _sources(self) -> Dict[Coord, List[_SourcePort]]:
        self.export_state()
        return self._source_ports

    @property
    def _source_occupancy(self) -> Dict[Coord, int]:
        """Coord-keyed view of the per-node source occupancy (audits,
        telemetry sampling — the cycle loop uses ``_source_occ``)."""
        occ = self._source_occ
        return {coord: occ[i] for i, coord in enumerate(self.mesh.coords())}

    def try_inject(self, packet: Packet, cycle: int) -> bool:
        """Queue ``packet`` at its source network interface (node id
        ``packet.src``).

        The capacity test comes first because ``plan`` may draw from the
        network's RNG, and only admitted packets draw.  On the compiled
        kernel, :meth:`BatchedCore.accept` does the rest: the route
        lookup, port rotation, slot, FIFO link, occupancy and offer
        counters."""
        # ``flit_count`` inlined: a packet of no bytes still takes a flit.
        num_flits = -(-packet.size_bytes // self._channel_width) or 1
        cap = self._source_cap
        idx = packet.src
        occupancy = self._source_occ[idx]
        if cap is not None and occupancy + num_flits > cap:
            return False
        plan = self._plan
        if plan is not None:
            plan(packet, self._rng)
        core = self._batched
        if core is not None:
            core.accept(packet, num_flits)
            return True
        ports = self._source_rows[idx][1]
        k = 0
        if len(ports) > 1:
            # Several injection ports: rotate round-robin between them.
            k = self._source_rr[idx]
            self._source_rr[idx] = (k + 1) % len(ports)
        ports[k].fifo.append(packet)
        self._source_flits += num_flits
        self._source_occ[idx] = occupancy + num_flits
        self.stats.record_offer(packet, num_flits)
        if self.tracer is not None:
            self.tracer.on_offer(packet, self, cycle)
        return True

    def step(self, cycle: Optional[int] = None) -> None:
        """Advance one interconnect cycle.

        On the compiled kernel a cycle is at most two kernel calls:
        :meth:`BatchedCore.sweep` delivers channels, steps the routers and
        records the completed packets, Python runs their handlers in
        ejection order, and :meth:`BatchedCore.drain` drains the sources
        and records each injection.  A fully idle network reduces to a
        cycle-counter bump.  Without the kernel, the reference scan runs:
        channels with traffic in flight deliver (in insertion order),
        every occupied router steps in mesh order, then every queued
        source port is attempted.  The kernel ports it line for line;
        tests/test_stepper_equivalence.py compares them bit for bit.
        """
        self.cycle = self.cycle + 1 if cycle is None else cycle
        now = self.cycle
        self.stats.cycles = now
        core = self._batched
        if core is None:
            # ``deliver`` never activates or deactivates other channels, so
            # the dict is iterated directly and drained channels go after.
            drained = []
            for channel in self._active_channels:
                n = channel.deliver(now)
                if n:
                    self._buffered_flits += n
                    self.stats.link_flit_hops += n
                    self.stats.buffer_writes += n
                if not channel.busy:
                    drained.append(channel)
            for channel in drained:
                del self._active_channels[channel]
            if self._buffered_flits:
                for router in self._router_list:
                    if router.occupancy:
                        before = router.occupancy
                        for flit, _port in router.step(now):
                            self._eject(flit, now)
                        moved = before - router.occupancy
                        self._buffered_flits -= moved
                        self.stats.crossbar_traversals += moved
                        self.stats.buffer_reads += moved
            if self._source_flits:
                occ = self._source_occ
                for idx, (coord, ports, router) in enumerate(
                        self._source_rows):
                    if occ[idx]:
                        for port in ports:
                            self._drain_source(idx, coord, router, port,
                                               now)
        else:
            st = core.st
            if st[core.BUFFERED] or st[core.NACTIVE]:
                done = core.sweep(now)
                if done:
                    handlers = self._handlers
                    for packet in done:
                        handler = handlers[packet.dest]
                        if handler is not None:
                            handler(packet, now)
            if st[core.SRCFLITS]:
                core.drain(now)
        checker = self.checker
        if checker is not None:
            checker.on_cycle(now)

    def use_reference_stepper(self) -> None:
        """Switch to the exhaustive-scan stepper (debug/benchmark oracle).

        Only legal while idle.  The kernel's state is exported first, so
        the reference continues with every pointer it left.
        """
        if not self.idle:
            raise RuntimeError(
                f"network {self.name!r}: stepper can only be switched while "
                "idle")
        if self._batched is not None:
            self.export_state()
            self._batched = None

    def channel_utilization(self) -> Dict[Tuple[Coord, Coord], float]:
        """Flits carried per cycle for every directed mesh link — the
        congestion map that exposes e.g. the top/bottom-row hotspots of the
        baseline MC placement."""
        if not self.cycle:
            return {}
        return {
            (ch.src_router.coord, ch.dst_router.coord):
                ch.flits_carried / self.cycle
            for ch in self.channels
        }

    def peak_channel_utilization(self) -> float:
        util = self.channel_utilization()
        return max(util.values()) if util else 0.0

    @property
    def idle(self) -> bool:
        """True when no flit is buffered, in flight, or waiting at a source.

        O(1): ``_source_flits`` mirrors the per-node source occupancy,
        ``_buffered_flits`` the per-router occupancy, and a channel is in
        ``_active_channels`` exactly while it has flits or credits in
        flight (the kernel keeps the same three counts).
        """
        core = self._batched
        if core is not None:
            return core.idle()
        return not (self._source_flits or self._buffered_flits
                    or self._active_channels)

    def run_until_idle(self, max_cycles: int = 1_000_000) -> int:
        """Drain all traffic; returns the cycle count.  Test helper."""
        start = self.cycle
        while not self.idle:
            if self.cycle - start > max_cycles:
                raise DeadlockError(
                    f"network {self.name!r} failed to drain within "
                    f"{max_cycles} cycles (deadlock?)\n"
                    + format_network_state(self))
            self.step()
        return self.cycle - start

    # -- internals ----------------------------------------------------------

    def _wake_channel(self, channel: Channel) -> None:
        """Channel watch hook: mark ``channel`` as carrying traffic."""
        self._active_channels[channel] = None

    def _drain_source(self, idx: int, coord: Coord, router: Router,
                      port: _SourcePort, now: int) -> bool:
        """Deliver at most one source flit into the router; returns whether
        a flit was delivered (False implies the call mutated nothing)."""
        if port.flits is None:
            if not port.fifo:
                return False
            packet = port.fifo[0]
            vc = self._pick_injection_vc(router, port.port_id, packet)
            if vc is None:
                return False
            port.fifo.popleft()
            port.flits = deque(packet.make_flits(self._channel_width))
            port.vc = vc
            packet.injected = now
            self.stats.record_injection(packet, len(port.flits))
        if router.injection_space(port.port_id, port.vc) > 0:
            flit = port.flits.popleft()
            router.deliver_flit(port.port_id, port.vc, flit, now)
            self._source_occ[idx] -= 1
            self._source_flits -= 1
            self._buffered_flits += 1
            self.stats.buffer_writes += 1
            if not port.flits:
                port.flits = None
                port.vc = None
            return True
        return False

    def _pick_injection_vc(self, router: Router, port_id,
                           packet: Packet) -> Optional[int]:
        allowed = self.vc_config.allowed_vcs(packet.traffic_class,
                                             packet.group)
        in_vcs = router.in_ports[port_id]
        depth = router.buffer_depth
        best_vc = None
        best_space = 0
        for vc in allowed:
            space = depth - len(in_vcs[vc].buffer)
            if space > best_space:
                best_vc, best_space = vc, space
        # Require room for the head flit now; the rest streams in over the
        # following cycles as the VC drains.
        return best_vc if best_space > 0 else None

    def _eject(self, flit: Flit, now: int) -> None:
        packet = flit.packet
        total = flit_count(packet.size_bytes, self._channel_width)
        got = self._reassembly.get(packet.pid, 0) + 1
        if got < total:
            self._reassembly[packet.pid] = got
            return
        self._reassembly.pop(packet.pid, None)
        packet.ejected = now
        self.stats.record_ejection(packet, total)
        if self.tracer is not None:
            self.tracer.on_eject(packet, now)
        handler = self._handlers[packet.dest]
        if handler is not None:
            handler(packet, now)
