"""Cycle-level virtual-channel wormhole router.

Models the paper's baseline router (Table III): input-queued, virtual-channel
flow control with credit-based backpressure, a configurable pipeline depth
(4 stages baseline, 3 for half-routers, 1 for the "aggressive router" study
of Section III-C), iSLIP-style separable switch allocation, input speedup 1.

The pipeline is modelled by a per-flit ready time: a flit entering an input
buffer at cycle ``t`` may not traverse the switch before
``t + pipeline_latency - 1``, so an uncontended hop costs
``pipeline_latency + channel_latency`` cycles (5 for the baseline, matching
Section III-B's "5-cycle per hop delay").

Half-routers (Section IV-A, Figure 13) restrict connectivity: packets may
not change dimension — East connects only to West (and vice versa), North
only to South — while injection and ejection ports connect to everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .arbiter import RoundRobinArbiter, SeparableAllocator
from .packet import Flit, Packet
from .routing import RoutingAlgorithm
from .topology import Coord, Direction, PortId, ejection_port, injection_port
from .vc import VcConfig

MESH_DIRECTIONS = (Direction.NORTH, Direction.SOUTH,
                   Direction.EAST, Direction.WEST)


class RoutingViolation(RuntimeError):
    """Raised when a route would require an illegal turn, e.g. a dimension
    change inside a half-router."""


@dataclass
class RouterSpec:
    """Static description of one router used by network assembly."""

    coord: Coord
    half: bool = False
    pipeline_latency: int = 4
    num_inject_ports: int = 1
    num_eject_ports: int = 1


class _InputVc:
    """State of one input virtual channel."""

    __slots__ = ("buffer", "out_port", "out_vc")

    def __init__(self) -> None:
        #: FIFO of buffered flits (at most ``vc_buffer_depth``).  A list,
        #: not a deque: an empty deque costs 760 bytes, an empty list 56,
        #: and a mesh holds one buffer per (router, input port, VC).
        self.buffer: List[Flit] = []
        self.out_port: Optional[PortId] = None   # route computation result
        self.out_vc: Optional[int] = None        # VC allocation result

    def reset_route(self) -> None:
        self.out_port = None
        self.out_vc = None


class _OutputPort:
    """Credit and ownership state for one output port."""

    __slots__ = ("port_id", "credits", "owner", "channel", "sink",
                 "vc_pointers")

    def __init__(self, port_id: PortId, num_vcs: int, buffer_depth: int,
                 channel=None, sink=None) -> None:
        self.port_id = port_id
        self.channel = channel          # mesh channel toward the next router
        self.sink = sink                # terminal ejection sink
        if sink is not None:
            # Terminal ejection: the node always drains, credits unbounded.
            self.credits = [1 << 30] * num_vcs
        else:
            self.credits = [buffer_depth] * num_vcs
        self.owner: List[Optional[Tuple[PortId, int]]] = [None] * num_vcs
        #: One rotation pointer per distinct ``allowed`` set.  A single
        #: shared pointer reused modulo ``len(allowed)`` across different
        #: sets (request vs reply classes, XY vs YX route splits) biases
        #: the rotation and couples the classes to each other.
        self.vc_pointers: Dict[Tuple[int, ...], int] = {}

    def free_vc(self, allowed: Tuple[int, ...]) -> Optional[int]:
        """Pick a free VC among ``allowed``, rotating for fairness."""
        n = len(allowed)
        if n == 1:
            # Single-VC class (the paper's baseline): the rotation pointer
            # is identically 0 mod 1, so the dict bookkeeping is dead.
            vc = allowed[0]
            return vc if self.owner[vc] is None else None
        pointer = self.vc_pointers.get(allowed, 0)
        for offset in range(n):
            vc = allowed[(pointer + offset) % n]
            if self.owner[vc] is None:
                self.vc_pointers[allowed] = (pointer + offset + 1) % n
                return vc
        return None


def full_connectivity(in_port: PortId, out_port: PortId) -> bool:
    """Legal turns of a conventional 5-port mesh router (no U-turns)."""
    if isinstance(in_port, tuple):          # injection port: to anywhere
        return not (isinstance(out_port, tuple) and out_port[0] == "inj")
    if isinstance(out_port, tuple):
        return out_port[0] == "ej"
    # Input ports are named for the side a flit enters on, so a U-turn is
    # out_port == in_port (back toward the neighbor it came from).
    return out_port != in_port


def half_connectivity(in_port: PortId, out_port: PortId) -> bool:
    """Legal connections of a half-router (Figure 13): straight-through on
    each dimension plus full injection/ejection connectivity."""
    if isinstance(in_port, tuple):
        return not (isinstance(out_port, tuple) and out_port[0] == "inj")
    if isinstance(out_port, tuple):
        return out_port[0] == "ej"
    return out_port == in_port.opposite()


class Router:
    """One mesh router instance."""

    def __init__(self, spec: RouterSpec, vc_config: VcConfig,
                 buffer_depth: int, routing: RoutingAlgorithm) -> None:
        # Note: the credit-return delay is owned by the *channel*
        # (``NocParams.credit_delay`` -> ``Channel``); the router has no
        # say in it, so it deliberately takes no such parameter.
        self.coord = spec.coord
        self.spec = spec
        self.vc_config = vc_config
        self.num_vcs = vc_config.num_vcs
        self.buffer_depth = buffer_depth
        self.routing = routing
        self.pipeline_latency = spec.pipeline_latency
        self.connectivity: Callable[[PortId, PortId], bool] = (
            half_connectivity if spec.half else full_connectivity)

        self.in_ports: Dict[PortId, List[_InputVc]] = {}
        self.out_ports: Dict[PortId, _OutputPort] = {}
        #: Mesh channel feeding each mesh input port (for credit returns).
        self.in_channels: Dict[PortId, object] = {}
        for k in range(spec.num_inject_ports):
            self._add_input(injection_port(k))
        self._eject_ids = tuple(ejection_port(k)
                                for k in range(spec.num_eject_ports))
        self._eject_pointer = 0
        self._allocator: Optional[SeparableAllocator] = None
        self._input_order: Tuple[PortId, ...] = ()
        self._ordered_inputs: Tuple[Tuple[PortId, List[_InputVc]], ...] = ()
        self._va_rotate = 0
        #: Flits currently buffered; routers with zero occupancy are skipped.
        self.occupancy = 0
        #: Opt-in per-hop packet tracer (``repro.telemetry``); ``None``
        #: keeps each event site at a single attribute test.
        self.tracer = None

        #: This router's node id (``Mesh.index`` of its coord), which is
        #: its position in the network's router list.
        self.net_index = routing.mesh.index(spec.coord)
        self._in_pos: Dict[PortId, int] = {}

    # -- assembly ----------------------------------------------------------

    def _add_input(self, port_id: PortId) -> None:
        self.in_ports[port_id] = [_InputVc() for _ in range(self.num_vcs)]

    def attach_input_channel(self, direction: Direction, channel) -> None:
        """Attach an incoming mesh channel (flits arrive from a neighbor)."""
        self._add_input(direction)
        self.in_channels[direction] = channel

    def attach_output_channel(self, direction: Direction, channel) -> None:
        self.out_ports[direction] = _OutputPort(
            direction, self.num_vcs, self.buffer_depth, channel=channel)

    def attach_ejection(self, sink) -> None:
        for port_id in self._eject_ids:
            self.out_ports[port_id] = _OutputPort(
                port_id, self.num_vcs, self.buffer_depth, sink=sink)

    def finalize(self) -> None:
        """Build the switch allocator once all ports are attached."""
        self._input_order = tuple(sorted(self.in_ports, key=str))
        # The allocation loops walk the inputs every cycle; resolve the
        # port -> VC-list mapping once instead of per cycle.
        self._ordered_inputs = tuple(
            (port, self.in_ports[port]) for port in self._input_order)
        self._output_order = tuple(sorted(self.out_ports, key=str))
        self._allocator = SeparableAllocator(
            self._input_order, self.num_vcs, self._output_order)
        # Port -> position maps (channel delivery, the kernel's layout).
        self._in_pos = {port: i for i, port in enumerate(self._input_order)}
        self._out_pos = {port: i
                         for i, port in enumerate(self._output_order)}

    # -- runtime -----------------------------------------------------------

    def deliver_flit(self, port: PortId, vc: int, flit: Flit,
                     cycle: int) -> None:
        """A flit arrives from a channel (or from the injection source)."""
        pos = self._in_pos[port]
        terminal = type(port) is tuple
        state = self._ordered_inputs[pos][1][vc]
        if not terminal and len(state.buffer) >= self.buffer_depth:
            raise RuntimeError(
                f"buffer overflow at {self.coord} port {port} vc {vc}: "
                "credit accounting violated")
        # Uncontended per-hop latency = pipeline_latency + channel latency
        # (5 cycles for the 4-stage baseline, Section III-B).
        flit.ready = cycle + self.pipeline_latency
        state.buffer.append(flit)
        self.occupancy += 1
        tracer = self.tracer
        if tracer is not None and flit.is_head:
            tracer.on_hop_arrive(flit.packet, self.coord, port, cycle)

    def deliver_credit(self, port: PortId, vc: int) -> None:
        self.out_ports[port].credits[vc] += 1

    def injection_space(self, port: PortId, vc: int) -> int:
        return self.buffer_depth - len(self.in_ports[port][vc].buffer)

    def step(self, cycle: int) -> List[Tuple[Flit, PortId]]:
        """Advance one cycle: route computation, VC allocation, switch
        allocation and traversal.  Returns ejected (flit, port) pairs.

        This is the reference exhaustive scan, the bit-identity oracle of
        the compiled kernel (``repro.noc.batched``), which ports it line
        for line: any semantic change must land in both, and
        tests/test_stepper_equivalence.py compares them.
        """
        if self.occupancy == 0:
            return []
        self._route_and_allocate(cycle)
        return self._switch(cycle)

    # Full port x VC walk with a plain per-call rotation (the reference
    # stepper calls ``step`` every occupied cycle).
    def _route_and_allocate(self, cycle: int) -> None:
        inputs = self._ordered_inputs
        n = len(inputs)
        rotate = self._va_rotate
        self._va_rotate = (rotate + 1) % max(1, n)
        for i in range(n):
            in_port, in_vcs = inputs[(i + rotate) % n]
            for in_vc, vc_state in enumerate(in_vcs):
                buf = vc_state.buffer
                if not buf:
                    continue
                head = buf[0]
                if not head.is_head:
                    if vc_state.out_port is None:
                        raise RuntimeError(
                            f"body flit at head of VC without route at "
                            f"{self.coord}: {head!r}")
                    continue
                if head.ready > cycle:
                    continue
                packet = head.packet
                if vc_state.out_port is None:
                    direction = self.routing.next_port(self.net_index,
                                                       packet)
                    if direction is Direction.EJECT:
                        vc_state.out_port = Direction.EJECT
                    else:
                        if not self.connectivity(in_port, direction):
                            mesh = self.routing.mesh
                            raise RoutingViolation(
                                f"illegal turn at {self.coord} "
                                f"({'half' if self.spec.half else 'full'}): "
                                f"{in_port} -> {direction} for packet "
                                f"{mesh.coord(packet.src)}->"
                                f"{mesh.coord(packet.dest)} "
                                f"group={packet.group}")
                        vc_state.out_port = direction
                if vc_state.out_vc is None:
                    self._vc_allocate(in_port, in_vc, vc_state, packet,
                                      cycle)

    def _vc_allocate(self, in_port: PortId, in_vc: int, vc_state: _InputVc,
                     packet: Packet, cycle: int) -> None:
        allowed = self.vc_config.allowed_vcs(packet.traffic_class,
                                             packet.group)
        if vc_state.out_port is Direction.EJECT:
            candidates = self._eject_candidates()
        else:
            candidates = (vc_state.out_port,)
        for port_id in candidates:
            out = self.out_ports[port_id]
            vc = out.free_vc(allowed)
            if vc is not None:
                out.owner[vc] = (in_port, in_vc)
                vc_state.out_vc = vc
                vc_state.out_port = port_id
                tracer = self.tracer
                if tracer is not None:
                    tracer.on_vc_alloc(packet, self.coord, port_id, vc,
                                       cycle)
                return

    def _eject_candidates(self) -> Tuple[PortId, ...]:
        ids = self._eject_ids
        if len(ids) == 1:
            return ids
        p = self._eject_pointer
        self._eject_pointer = (p + 1) % len(ids)
        return ids[p:] + ids[:p]

    # Switch stage: dict-keyed requests via ``allocate``.
    def _switch(self, cycle: int) -> List[Tuple[Flit, PortId]]:
        requests: Dict[PortId, Dict[int, PortId]] = {}
        for in_port, in_vcs in self._ordered_inputs:
            vc_requests: Dict[int, PortId] = {}
            for vc_idx, vc_state in enumerate(in_vcs):
                if vc_state.out_vc is None or not vc_state.buffer:
                    continue
                flit = vc_state.buffer[0]
                if flit.ready > cycle:
                    continue
                out = self.out_ports[vc_state.out_port]
                if out.credits[vc_state.out_vc] <= 0:
                    continue
                vc_requests[vc_idx] = vc_state.out_port
            if vc_requests:
                requests[in_port] = vc_requests

        ejected: List[Tuple[Flit, PortId]] = []
        if not requests:
            return ejected
        tracer = self.tracer
        for in_port, vc_idx, out_port_id in self._allocator.allocate(requests):
            vc_state = self.in_ports[in_port][vc_idx]
            flit = vc_state.buffer.pop(0)
            self.occupancy -= 1
            out = self.out_ports[out_port_id]
            out_vc = vc_state.out_vc
            out.credits[out_vc] -= 1
            if tracer is not None and flit.is_head:
                tracer.on_switch(flit.packet, self.coord, out_port_id, cycle)
            if out.sink is not None:
                ejected.append((flit, out_port_id))
            else:
                out.channel.send_flit(flit, out_vc, cycle)
            # Return a credit upstream for the freed buffer slot.
            channel = self.in_channels.get(in_port)
            if channel is not None:
                channel.send_credit(vc_idx, cycle)
            if flit.is_tail:
                out.owner[out_vc] = None
                vc_state.reset_route()
        return ejected
