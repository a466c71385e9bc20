"""The compiled cycle kernel: every mesh network's fast path.

Every :class:`~repro.noc.network.MeshNetwork` builds a :class:`BatchedCore`
at construction.  The core keeps the in-flight network state in flat
``array('i')`` buffers of 32-bit words and steps it in C (``_noc_kernel.c``), a
line-for-line port of the reference scan (``Router.step``,
``SeparableAllocator.allocate``, ``_OutputPort.free_vc``,
``Channel.deliver`` and the source drain).  The reference scan stays the
bit-identity oracle behind ``REPRO_REFERENCE_STEPPER=1`` and
``use_reference_stepper()``; tests/test_stepper_equivalence.py compares
the two.

Ownership.  The kernel owns everything from "admitted by ``try_inject``"
to "last flit ejected": the free-slot list, the injection-port rotation,
source FIFOs and flit serialization, VC buffers (a flit is a packet slot
plus a flit index, with its ready cycle), credits and output-VC owners,
every rotation pointer, channels, reassembly, the four activity counters
and every per-packet record (``record_offer``, ``record_injection``,
``record_ejection`` and ``packet.injected``/``ejected``), which it writes
into the network's ``NetworkStats``: its per-node flit counters are
arrays indexed by node id, which the kernel increments in place at the
source port's node and the ejecting router.  Python keeps the
``Packet`` objects (indexed by slot), traffic generation, the capacity
test, routing (``plan`` and ``next_port``) and the ejection handlers.

Each packet costs one kernel call, :meth:`BatchedCore.accept`, after
``plan`` and a route-key lookup.  Each cycle makes at most two more:
:meth:`BatchedCore.sweep` delivers channels and steps the routers,
returning the completed packets in ejection order; after Python has run
their handlers (which may call ``try_inject``; the router phase reads
nothing they touch), :meth:`BatchedCore.drain` drains the sources.

Routing is data.  A route record (output position and allowed-VC set per
hop) is registered the first time its key is seen, by walking
``next_port`` on the planned packet; an illegal turn, an ejection away
from ``dest`` or a route that never ends raises at injection and
registers nothing.  The key is every field ``next_port`` reads (node
ids and the group and phase), plus the traffic class, which selects the
allowed-VC sets.  Records live in a :class:`RouteTable` shared by every
network in the process with the same routing signature, mesh, router
port layout and VC configuration (:func:`route_table`); registration
takes a lock, lookups do not.

Readers see objects.  State dumps, audits, telemetry and
``use_reference_stepper`` read the router, channel and source objects;
:meth:`BatchedCore.export` rewrites them from the kernel state, and runs
only if the kernel has stepped (or accepted a packet) since the last
export, so a test that edits objects and then audits sees its edits.

Build.  :data:`KERNEL` builds, caches and loads the extension through
the package's shared loader (:mod:`repro.native`).  If the kernel cannot
be built or loaded, networks run the reference scan and one warning is
logged.
"""

from __future__ import annotations

import os
import threading
from array import array
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional

from ..native import CompiledKernel
from .packet import Flit
from .router import RoutingViolation
from .topology import Direction

SOURCE = Path(__file__).with_name("_noc_kernel.c")
MODULE = "_noc_kernel"

# -- state layout (mirrors _noc_kernel.c) ------------------------------------
LAYOUT = 4
MAX_PORTS = 16
MAX_VCS = 32
#: Pipeline and channel delays must stay below this, so that a cycle plus
#: a delay fits the kernel's 32-bit words (it refuses cycles past
#: ``MAX_CYCLE``).
MAX_DELAY = 1 << 20
MAX_CYCLE = (1 << 31) - 1 - MAX_DELAY
OUT_NONE, OUT_EJECT = -1, -2
(H_LAYOUT, H_SIZE, H_NR, H_V, H_DEPTH, H_NCH, H_NSRC, H_NSETS,
 H_FCAP, H_CCAP, H_BUFFERED, H_SRCFLITS, H_NACTIVE, H_FREE,
 H_ROUTER, H_IN, H_OUT, H_CREDITS, H_OWNER, H_VCPTR, H_EJ, H_CELL,
 H_FLIT, H_CH, H_CHFLIT, H_CHCRED, H_ACTIVE, H_SRC, H_SETS, H_NODE,
 H_COUNT) = range(31)
(R_NIN, R_NOUT, R_IN_BASE, R_OUT_BASE, R_NEJ, R_EJ_BASE, R_PIPE,
 R_OCC, R_VAROT, R_EJPTR, R_F) = range(11)
IN_CH, IN_PTR, IN_F = range(3)
OUT_CH, OUT_PTR, OUT_F = range(3)
C_HEAD, C_LEN, C_OUT, C_OUTVC, C_F = range(5)
FL_SLOT, FL_INDEX, FL_READY, FL_F = range(4)
(CH_DST_IN, CH_DST_R, CH_SRC_OUT, CH_LAT, CH_CDELAY, CH_CARRIED,
 CH_FHEAD, CH_FLEN, CH_CHEAD, CH_CLEN, CH_ACTIVE, CH_F) = range(12)
CF_TIME, CF_SLOT, CF_INDEX, CF_VC, CF_READY, CF_F = range(6)
CC_TIME, CC_VC, CC_F = range(3)
S_NODE, S_IN, S_FHEAD, S_FTAIL, S_CUR, S_NEXT, S_VC, S_F = range(8)
N_SRC, N_NSRC, N_RR, N_F = range(4)
SL_NFLITS, SL_ROUTE, SL_HOP, SL_GOT, SL_NEXT, SL_INJECTED, SL_F = range(7)
RT_LEN, RT_INJSET, RT_FINAL, RT_HOPS = range(4)

#: Slots the slot table grows by when the kernel finds none free.
SLOT_CHUNK = 64


# -- build, cache, load -------------------------------------------------------

KERNEL = CompiledKernel(SOURCE, MODULE, LAYOUT, "NoC",
                        event="noc.kernel_unavailable",
                        fallback="networks use the reference stepper")


def load_kernel():
    """The compiled NoC kernel module, building it on first use; None
    (after one logged warning) if it cannot be built or loaded."""
    return KERNEL.load()


# -- route tables -------------------------------------------------------------

class RouteTable:
    """Registered routes of every network with one routing signature.

    ``routes`` holds the route records the kernel reads: hop count,
    injection VC set, final-state index (see :attr:`finals`), then per
    hop the output position (or eject) and the allowed-VC set.  ``ids``
    maps a route key to its record's offset.  Lookups need no lock:
    a record is complete before its id is published, and a full
    ``routes`` array is copied, never resized, because another thread's
    kernel call may hold a buffer of the published one.
    """

    def __init__(self, vc_config) -> None:
        #: Distinct allowed-VC sets; a record names a set by its position.
        self.sets = list(dict.fromkeys(vc_config._allowed.values()))
        self.set_ids = {s: i for i, s in enumerate(self.sets)}
        self.routes = array("i")
        self.used = 0
        self.ids: Dict[tuple, int] = {}
        #: Route -> ((group, phase) at planning, per-hop (group, phase)
        #: after ``next_port``) for routes that change them (two-phase CR
        #: and ROMM); the export restores them.
        self.states: Dict[int, tuple] = {}
        #: The (group, phase) such a route's last ``next_port`` leaves; the
        #: kernel gives it to the packet at ejection.
        self.finals: List[tuple] = []
        #: One tuple per distinct (group, phase), shared by every record
        #: above: the table lives as long as the process.
        self._pairs: Dict[tuple, tuple] = {}

    def register(self, net, packet, key) -> int:
        """The route id of ``key``, walking and appending it on a miss."""
        with _lock:
            route = self.ids.get(key)
            if route is None:
                record, planned, states = _walk(net, packet, self.set_ids)
                route = self._append(record, planned, states)
                self.ids[key] = route
        return route

    def _append(self, record, planned, states) -> int:
        if any(state != planned for state in states):
            intern = self._pairs.setdefault
            planned = intern(planned, planned)
            states = tuple(intern(state, state) for state in states)
            record[RT_FINAL] = len(self.finals)
            self.finals.append(states[-1])
        route, end = self.used, self.used + len(record)
        routes = self.routes
        if end > len(routes):
            size = max(end, 2 * len(routes), 256)
            routes = array("i", routes)
            routes.extend(array("i", [0]) * (size - len(routes)))
        routes[route:end] = array("i", record)
        self.routes = routes
        self.used = end
        if record[RT_FINAL] >= 0:
            self.states[route] = (planned, states)
        return route


def _walk(net, packet, set_ids):
    """Walk ``next_port`` from the planned packet's source (as
    ``invariants.planned_route`` does); return the route record, the
    planned (group, phase) and the (group, phase) after each hop.

    ``next_port`` writes only ``group`` and ``phase``, so the walk runs on
    the packet itself and restores those two fields after, which leaves
    it exactly as planned (a ``copy.copy`` of a slotted dataclass costs
    more than the walk)."""
    next_port = net.routing.next_port
    allowed = net.vc_config.allowed_vcs
    tclass = packet.traffic_class
    planned = (packet.group, packet.phase)
    group = packet.group
    vcs = set_ids[allowed(tclass, group)]
    record = [0, vcs, -1]
    states = []
    routers = net._router_list
    node = packet.src
    mesh = net.mesh
    pair = f"{mesh.coord(node)}->{mesh.coord(packet.dest)}"
    in_port = None                        # injection ports turn anywhere
    try:
        for _ in range(4 * mesh.num_nodes):
            router = routers[node]
            direction = next_port(node, packet)
            states.append((packet.group, packet.phase))
            if packet.group is not group:
                group = packet.group
                vcs = set_ids[allowed(tclass, group)]
            if direction is Direction.EJECT:
                if node != packet.dest:
                    raise RoutingViolation(
                        f"packet {pair} ejects at {router.coord}")
                record += (OUT_EJECT, vcs)
                break
            out = router._out_pos.get(direction)
            if out is None or (in_port is not None
                               and not router.connectivity(in_port,
                                                           direction)):
                raise RoutingViolation(
                    f"illegal turn at {router.coord} "
                    f"({'half' if router.spec.half else 'full'}): "
                    f"{in_port} -> {direction} for packet {pair} "
                    f"group={group}")
            record += (out, vcs)
            in_port = direction.opposite()
            node = router.out_ports[direction].channel.dst_router.net_index
        else:
            raise RoutingViolation(
                f"route {pair} group={planned[0]} does not terminate")
    finally:
        packet.group, packet.phase = planned
    record[RT_LEN] = len(states)
    return record, planned, states


#: Guards route registration and the table registry (lookups take no
#: lock).  Re-created in a forked child, which may inherit it held.
_lock = threading.Lock()
_tables: Dict[tuple, RouteTable] = {}


def _reset_lock() -> None:
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock)


def route_table(net) -> RouteTable:
    """The route table ``net`` registers into.

    A route record depends on the routing's ``next_port``, the mesh, each
    router's half flag and output-port order, and the VC configuration,
    so networks that agree on all of them share one table per process
    (every network of a design, and every point of that design a
    process runs).  A routing whose ``route_signature()`` is None gets a
    table of its own."""
    signature = net.routing.route_signature()
    if signature is None:
        return RouteTable(net.vc_config)
    key = (signature, net.mesh.cols, net.mesh.rows, net.vc_config,
           tuple((router.spec.half, router._output_order)
                 for router in net._router_list))
    with _lock:
        table = _tables.get(key)
        if table is None:
            table = _tables[key] = RouteTable(net.vc_config)
    return table


# -- the core -----------------------------------------------------------------

class BatchedCore:
    """Flat kernel state of one ``MeshNetwork`` plus its Python side.

    Built by the network before any traffic exists.
    """

    #: State-header slots the network's cycle loop reads to skip a kernel
    #: call with nothing to do: flits buffered in routers, channels with
    #: traffic in flight, flits queued or draining at sources.
    BUFFERED, NACTIVE, SRCFLITS = H_BUFFERED, H_NACTIVE, H_SRCFLITS

    def __init__(self, net, kernel) -> None:
        self.net = net
        self._accept = kernel.accept
        self._sweep = kernel.sweep
        self._drain = kernel.drain
        self._stats = net.stats
        self._occ = net._source_occ
        self.table = route_table(net)
        self._route_ids = self.table.ids
        #: Packet objects by slot (None for a free slot); the kernel fills
        #: and frees the slots.
        self.packets: List[Optional[object]] = []
        #: True once the kernel has stepped or accepted a packet since the
        #: last export.
        self.stale = False
        self.slots = array("i")
        self._layout()

    # -- layout -------------------------------------------------------------

    def _layout(self) -> None:
        net = self.net
        routers = net._router_list
        channels = net._channels
        v = net.vc_config.num_vcs
        depth = net.params.vc_buffer_depth
        if not 1 <= v <= MAX_VCS:
            raise ValueError(f"{v} VCs per port: the kernel supports "
                             f"1..{MAX_VCS}")
        self.v, self.depth = v, depth
        self.sets = self.table.sets
        ch_index = {ch: i for i, ch in enumerate(channels)}
        in_base, out_base = [], []
        n_in = n_out = 0
        for router in routers:
            if (len(router._input_order) > MAX_PORTS
                    or len(router._output_order) > MAX_PORTS):
                raise ValueError(f"router {router.coord}: more than "
                                 f"{MAX_PORTS} ports")
            in_base.append(n_in)
            out_base.append(n_out)
            n_in += len(router._input_order)
            n_out += len(router._output_order)
        self.in_base, self.out_base = in_base, out_base

        delays = [r.pipeline_latency for r in routers]
        delays += [d for ch in channels for d in (ch.latency,
                                                  ch.credit_delay)]
        if max(delays, default=0) >= MAX_DELAY or min(delays, default=0) < 0:
            raise ValueError(f"pipeline and channel delays must lie in "
                             f"0..{MAX_DELAY - 1} for the kernel")
        fcap = max((ch.latency for ch in channels), default=1) + 1
        ccap = max((max(ch.credit_delay, 1) for ch in channels),
                   default=1) + 1
        nsrc = sum(len(ports) for _c, ports, _r in net._source_rows)
        nsets = len(self.sets)
        sizes = [
            (H_ROUTER, len(routers) * R_F), (H_IN, n_in * IN_F),
            (H_OUT, n_out * OUT_F), (H_CREDITS, n_out * v),
            (H_OWNER, n_out * v), (H_VCPTR, n_out * nsets),
            (H_EJ, sum(len(r._eject_ids) for r in routers)),
            (H_CELL, n_in * v * C_F), (H_FLIT, n_in * v * depth * FL_F),
            (H_CH, len(channels) * CH_F),
            (H_CHFLIT, len(channels) * fcap * CF_F),
            (H_CHCRED, len(channels) * ccap * CC_F),
            (H_ACTIVE, len(channels)), (H_SRC, nsrc * S_F),
            (H_SETS, nsets * (1 + v)), (H_NODE, len(routers) * N_F),
        ]
        st = [0] * H_COUNT
        for slot, size in sizes:
            st[slot] = len(st)
            st.extend([0] * size)
        st[H_LAYOUT], st[H_SIZE], st[H_NR], st[H_V] = (
            LAYOUT, len(st), len(routers), v)
        st[H_DEPTH], st[H_NCH], st[H_NSRC], st[H_NSETS] = (
            depth, len(channels), nsrc, nsets)
        st[H_FCAP], st[H_CCAP] = fcap, ccap
        st[H_FREE] = -1

        ej_at = st[H_EJ]
        for r, router in enumerate(routers):
            row = st[H_ROUTER] + r * R_F
            st[row + R_NIN] = len(router._input_order)
            st[row + R_NOUT] = len(router._output_order)
            st[row + R_IN_BASE] = in_base[r]
            st[row + R_OUT_BASE] = out_base[r]
            st[row + R_NEJ] = len(router._eject_ids)
            st[row + R_EJ_BASE] = ej_at - st[H_EJ]
            st[row + R_PIPE] = router.pipeline_latency
            for port in router._eject_ids:
                st[ej_at] = router._out_pos[port]
                ej_at += 1
            for pos, port in enumerate(router._input_order):
                channel = router.in_channels.get(port)
                st[st[H_IN] + (in_base[r] + pos) * IN_F + IN_CH] = (
                    ch_index[channel] if channel is not None else -1)
                for vc in range(v):
                    cell = st[H_CELL] + ((in_base[r] + pos) * v + vc) * C_F
                    st[cell + C_OUT] = OUT_NONE
                    st[cell + C_OUTVC] = -1
            for o, port in enumerate(router._output_order):
                out = router.out_ports[port]
                og = out_base[r] + o
                st[st[H_OUT] + og * OUT_F + OUT_CH] = (
                    ch_index[out.channel] if out.channel is not None
                    else -1)
                at = og * v
                st[st[H_CREDITS] + at:st[H_CREDITS] + at + v] = out.credits
                st[st[H_OWNER] + at:st[H_OWNER] + at + v] = [-1] * v
                at = st[H_VCPTR] + og * nsets
                st[at:at + nsets] = [-1] * nsets
        for c, ch in enumerate(channels):
            row = st[H_CH] + c * CH_F
            dst, src = ch.dst_router, ch.src_router
            st[row + CH_DST_IN] = (in_base[dst.net_index]
                                   + dst._in_pos[ch.dst_port])
            st[row + CH_DST_R] = dst.net_index
            st[row + CH_SRC_OUT] = (out_base[src.net_index]
                                    + src._out_pos[ch.src_port])
            st[row + CH_LAT] = ch.latency
            st[row + CH_CDELAY] = ch.credit_delay
        #: Global source-port index of each node's first port.
        self.source_base = []
        p = 0
        for node, (_coord, ports, router) in enumerate(net._source_rows):
            self.source_base.append(p)
            row = st[H_NODE] + node * N_F
            st[row + N_SRC], st[row + N_NSRC] = p, len(ports)
            st[row + N_RR] = net._source_rr[node]
            for port in ports:
                row = st[H_SRC] + p * S_F
                st[row + S_NODE] = node
                st[row + S_IN] = (in_base[node]
                                  + router._in_pos[port.port_id])
                st[row + S_FHEAD] = st[row + S_FTAIL] = -1
                st[row + S_CUR] = st[row + S_VC] = -1
                p += 1
        for i, allowed in enumerate(self.sets):
            row = st[H_SETS] + i * (1 + v)
            st[row] = len(allowed)
            st[row + 1:row + 1 + len(allowed)] = list(allowed)
        self.st = array("i", st)

    # -- per cycle ----------------------------------------------------------

    def sweep(self, now: int):
        """Channel delivery and the router phase: one kernel call.
        Returns the packets completed this cycle in ejection order (None
        if none), each already recorded in the stats and its slot
        freed."""
        self.stale = True
        table = self.table
        stats = self._stats
        return self._sweep(self.st, self.slots, table.routes, self.packets,
                           table.finals, stats, stats.node_ejected_flits, now)

    def drain(self, now: int) -> None:
        """One source-drain pass, recording each packet whose head leaves
        its FIFO: one kernel call."""
        self.stale = True
        stats = self._stats
        self._drain(self.st, self.slots, self.table.routes, self.packets,
                    self._occ, stats, stats.node_injected_flits, now)

    def idle(self) -> bool:
        st = self.st
        return not (st[H_SRCFLITS] or st[H_BUFFERED] or st[H_NACTIVE])

    # -- admission ----------------------------------------------------------

    def accept(self, packet, num_flits: int) -> None:
        """Queue a planned packet at its source node, whose source queue
        has room.

        The route key is every field ``next_port`` reads, plus the traffic
        class, which selects the allowed-VC sets: node ids, a group and a
        phase, all hashed in C.  The kernel does the rest of admission
        (see ``_noc_kernel.c``'s ``admit``)."""
        src = packet.src
        key = (packet.traffic_class, src, packet.dest, packet.group,
               packet.intermediate, packet.phase)
        route = self._route_ids.get(key)
        if route is None:
            route = self.table.register(self.net, packet, key)
        routes = self.table.routes
        while self._accept(self.st, self.slots, routes, self.packets,
                           self._occ, self._stats, packet, src, route,
                           num_flits) < 0:
            self._grow()
        self.stale = True

    def _grow(self) -> None:
        """Add ``SLOT_CHUNK`` slots to the slot table and put them on the
        kernel's free list (the kernel cannot resize the arrays it is
        handed)."""
        old = len(self.packets)
        rows = array("i", [0] * SL_F) * SLOT_CHUNK
        for k in range(SLOT_CHUNK):
            rows[k * SL_F + SL_NEXT] = old + k + 1
        rows[len(rows) - SL_F + SL_NEXT] = self.st[H_FREE]
        self.slots.extend(rows)
        self.packets.extend([None] * SLOT_CHUNK)
        self.st[H_FREE] = old

    # -- export -------------------------------------------------------------

    def export(self) -> None:
        """Rewrite the network's router, channel and source objects (and
        its flit counters and reassembly table) from the kernel state."""
        self.stale = False
        net = self.net
        st, slots, packets = self.st, self.slots, self.packets
        v, depth = self.v, self.depth

        def flit(slot, index, ready):
            n = slots[slot * SL_F + SL_NFLITS]
            return Flit(packets[slot], index, index == 0, index == n - 1,
                        ready)

        for r, router in enumerate(net._router_list):
            row = st[H_ROUTER] + r * R_F
            router.occupancy = st[row + R_OCC]
            router._va_rotate = st[row + R_VAROT]
            router._eject_pointer = st[row + R_EJPTR]
            ib, ob = self.in_base[r], self.out_base[r]
            allocator = router._allocator
            for pos, (_port, in_vcs) in enumerate(router._ordered_inputs):
                allocator._in_ptr[pos] = st[st[H_IN] + (ib + pos) * IN_F
                                            + IN_PTR]
                for vc, state in enumerate(in_vcs):
                    ci = (ib + pos) * v + vc
                    cell = st[H_CELL] + ci * C_F
                    head, length = st[cell + C_HEAD], st[cell + C_LEN]
                    buffer = []
                    for k in range(length):
                        f = st[H_FLIT] + (ci * depth + (head + k) % depth) \
                            * FL_F
                        buffer.append(flit(st[f + FL_SLOT], st[f + FL_INDEX],
                                           st[f + FL_READY]))
                    state.buffer = buffer
                    out = st[cell + C_OUT]
                    state.out_port = (None if out == OUT_NONE
                                      else Direction.EJECT
                                      if out == OUT_EJECT
                                      else router._output_order[out])
                    out_vc = st[cell + C_OUTVC]
                    state.out_vc = None if out_vc < 0 else out_vc
            inputs = router._input_order
            for o, port in enumerate(router._output_order):
                og = ob + o
                allocator._out_ptr[o] = st[st[H_OUT] + og * OUT_F + OUT_PTR]
                out = router.out_ports[port]
                at = og * v
                out.credits[:] = st[st[H_CREDITS] + at:
                                    st[H_CREDITS] + at + v].tolist()
                out.owner[:] = [
                    None if owner < 0 else (inputs[owner // v], owner % v)
                    for owner in st[st[H_OWNER] + at:st[H_OWNER] + at + v]]
                at = st[H_VCPTR] + og * len(self.sets)
                out.vc_pointers = {
                    self.sets[s]: p for s, p in
                    enumerate(st[at:at + len(self.sets)]) if p >= 0}

        fcap, ccap = st[H_FCAP], st[H_CCAP]
        for c, channel in enumerate(net._channels):
            row = st[H_CH] + c * CH_F
            channel.flits_carried = st[row + CH_CARRIED]
            flits = deque()
            for k in range(st[row + CH_FLEN]):
                e = st[H_CHFLIT] + (c * fcap + (st[row + CH_FHEAD] + k)
                                    % fcap) * CF_F
                flits.append((st[e + CF_TIME],
                              flit(st[e + CF_SLOT], st[e + CF_INDEX],
                                   st[e + CF_READY]), st[e + CF_VC]))
            channel._flits = flits
            credits = deque()
            for k in range(st[row + CH_CLEN]):
                e = st[H_CHCRED] + (c * ccap + (st[row + CH_CHEAD] + k)
                                    % ccap) * CC_F
                credits.append((st[e + CC_TIME], st[e + CC_VC]))
            channel._credits = credits
        net._active_channels = {
            net._channels[c]: None
            for c in st[st[H_ACTIVE]:st[H_ACTIVE] + st[H_NACTIVE]]}
        net._buffered_flits = st[H_BUFFERED]

        p = 0
        for node, (_coord, ports, _router) in enumerate(net._source_rows):
            net._source_rr[node] = st[st[H_NODE] + node * N_F + N_RR]
            for port in ports:
                row = st[H_SRC] + p * S_F
                fifo = deque()
                slot = st[row + S_FHEAD]
                while slot >= 0:
                    fifo.append(packets[slot])
                    slot = slots[slot * SL_F + SL_NEXT]
                port.fifo = fifo
                cur = st[row + S_CUR]
                if cur < 0:
                    port.flits = port.vc = None
                else:
                    n = slots[cur * SL_F + SL_NFLITS]
                    port.flits = deque(flit(cur, i, 0) for i in
                                       range(st[row + S_NEXT], n))
                    port.vc = st[row + S_VC]
                p += 1
        net._source_flits = st[H_SRCFLITS]

        reassembly = {}
        route_states = self.table.states
        for slot, packet in enumerate(packets):
            if packet is None:
                continue
            row = slot * SL_F
            if slots[row + SL_GOT]:
                reassembly[packet.pid] = slots[row + SL_GOT]
            states = route_states.get(slots[row + SL_ROUTE])
            if states is not None:
                hop = slots[row + SL_HOP]
                packet.group, packet.phase = (states[1][hop - 1] if hop
                                              else states[0])
        net._reassembly = reassembly
