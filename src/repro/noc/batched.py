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

Ownership.  The kernel owns everything from "accepted by ``try_inject``"
to "last flit ejected": source FIFOs and flit serialization, VC buffers
(a flit is a packet slot plus a flit index, with its ready cycle),
credits and output-VC owners, every rotation pointer, channels,
reassembly and the four activity counters.  Python keeps the ``Packet``
objects (indexed by slot), traffic generation, admission, routing
(``plan`` and ``next_port``), per-packet injection/ejection records and
the ejection handlers.

Each cycle makes at most two kernel calls: :meth:`BatchedCore.sweep`
delivers channels and steps the routers, returning completed packets in
ejection order; after Python has run their handlers (which may call
``try_inject``; the router phase reads nothing they touch),
:meth:`BatchedCore.drain` appends the cycle's accepted packets in
acceptance order and drains the sources.

Routing is data.  On a memo miss ``try_inject`` walks ``next_port`` on a
copy of the planned packet and registers the hop list (output position
and allowed-VC set per hop); an illegal turn or a route that never ends
raises at injection.  The memo key is every field ``next_port`` reads,
plus the traffic class, which selects the allowed-VC sets.

Readers see objects.  State dumps, audits, telemetry and
``use_reference_stepper`` read the router, channel and source objects;
:meth:`BatchedCore.export` rewrites them from the kernel state, and runs
only if the kernel has stepped (or accepted a packet) since the last
export, so a test that edits objects and then audits sees its edits.

Build.  The extension is compiled with setuptools' ``build_ext`` in a
child process on first use, cached under a hash of the C source, the
extension suffix and the compile flags (``__pycache__`` beside the
source, else a per-user directory in the temp dir), published with
``os.replace`` and loaded with ``importlib``.  A location is used only
if it and the module file are owned by this user, writable by no one
else and not symlinks.  If the kernel cannot be built or loaded,
networks run the reference scan and one warning is logged.
"""

from __future__ import annotations

import os
import stat
from array import array
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .packet import Flit
from .router import RoutingViolation
from .topology import Direction

SOURCE = Path(__file__).with_name("_noc_kernel.c")
MODULE = "_noc_kernel"
COMPILE_ARGS = ("-O2",)

# -- state layout (mirrors _noc_kernel.c) ------------------------------------
LAYOUT = 2
MAX_PORTS = 16
MAX_VCS = 32
#: Pipeline and channel delays must stay below this, so that a cycle plus
#: a delay fits the kernel's 32-bit words (it refuses cycles past
#: ``2**31 - 1 - MAX_DELAY``).
MAX_DELAY = 1 << 20
OUT_NONE, OUT_EJECT = -1, -2
(H_LAYOUT, H_SIZE, H_NR, H_V, H_DEPTH, H_NCH, H_NSRC, H_NSETS,
 H_FCAP, H_CCAP, H_BUFFERED, H_SRCFLITS, H_NACTIVE,
 H_ROUTER, H_IN, H_OUT, H_CREDITS, H_OWNER, H_VCPTR, H_EJ, H_CELL,
 H_FLIT, H_CH, H_CHFLIT, H_CHCRED, H_ACTIVE, H_SRC, H_SETS,
 H_COUNT) = range(29)
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
SL_NFLITS, SL_ROUTE, SL_HOP, SL_GOT, SL_NEXT, SL_F = range(6)
RT_LEN, RT_INJSET, RT_HOPS = range(3)

_SLOT_ROW = array("i", [0] * SL_F)


# -- build, cache, load -------------------------------------------------------

#: Child-process build: setuptools' build_ext, never imported here.
_BUILD_SCRIPT = """
import sys
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext
source, out, name, *flags = sys.argv[1:]
dist = Distribution({"name": name, "ext_modules": [
    Extension(name, [source], extra_compile_args=flags)]})
cmd = build_ext(dist)
cmd.build_lib = cmd.build_temp = out
cmd.ensure_finalized()
cmd.run()
print("BUILT " + cmd.get_ext_fullpath(name))
"""

_kernel = None
_loaded = False


class KernelUnavailable(RuntimeError):
    """The compiled kernel could not be built or loaded."""


def cache_dirs():
    """Where the built module is cached, in order of preference: beside
    the source, else a per-user directory in the temp dir."""
    yield SOURCE.parent / "__pycache__"
    import tempfile
    user = os.getuid() if hasattr(os, "getuid") else "user"
    yield Path(tempfile.gettempdir()) / f"repro-noc-kernel-{user}"


def _private(path: Path, kind) -> bool:
    """True if ``path`` exists as ``kind`` (``stat.S_ISDIR`` or
    ``stat.S_ISREG``; a symlink is neither), is owned by this user and
    is writable by no one else, so no other user can plant or swap the
    module loaded from it.  Without POSIX owners (Windows, where the
    temp dir is per-user) only the type is checked."""
    try:
        st = path.lstat()
    except OSError:
        return False
    if not kind(st.st_mode):
        return False
    if not hasattr(os, "getuid"):
        return True
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def module_filename() -> str:
    """Cache file name: a hash of the C source, the extension suffix and
    the compile flags, so any change to one of them rebuilds."""
    import hashlib
    from importlib.machinery import EXTENSION_SUFFIXES
    suffix = EXTENSION_SUFFIXES[0]        # sysconfig's EXT_SUFFIX
    digest = hashlib.sha256()
    for part in (SOURCE.read_bytes(), suffix.encode(),
                 repr(COMPILE_ARGS).encode()):
        digest.update(part)
    return f"{MODULE}-{digest.hexdigest()[:16]}{suffix}"


def _import(path: Path):
    """Load the extension at ``path``; None if it is unusable."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(MODULE, path)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return None
    return module if getattr(module, "LAYOUT", None) == LAYOUT else None


def build(target: Path) -> None:
    """Compile the kernel in a child process and publish it at
    ``target`` with ``os.replace`` (concurrent builders cannot race)."""
    import shutil
    import subprocess
    import sys
    import tempfile
    work = tempfile.mkdtemp(prefix=".build-", dir=target.parent)
    try:
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _BUILD_SCRIPT, str(SOURCE), work,
                 MODULE, *COMPILE_ARGS],
                cwd=work, capture_output=True, text=True, timeout=600)
        except subprocess.SubprocessError as exc:
            raise KernelUnavailable(f"build failed: {exc}") from exc
        built = [line[6:] for line in proc.stdout.splitlines()
                 if line.startswith("BUILT ")]
        if proc.returncode != 0 or not built:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            raise KernelUnavailable(
                f"build failed (exit {proc.returncode}): "
                + " | ".join(tail))
        os.chmod(built[-1], 0o755)        # whatever the umask
        os.replace(built[-1], target)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _load_or_build():
    name = module_filename()
    for directory in cache_dirs():
        path = directory / name
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            continue                      # not creatable: next location
        if not _private(directory, stat.S_ISDIR):
            continue                      # another user could plant code
        if _private(path, stat.S_ISREG):
            module = _import(path)
            if module is not None:
                return module
        try:
            build(path)
        except OSError:
            continue                      # not writable: next location
        module = _import(path)
        if module is None:
            raise KernelUnavailable(f"built module {path} does not load")
        return module
    raise KernelUnavailable("no private, writable cache directory")


def load_kernel():
    """The compiled kernel module, building it on first use; None (after
    one logged warning) if it cannot be built or loaded."""
    global _kernel, _loaded
    if not _loaded:
        _loaded = True
        try:
            _kernel = _load_or_build()
        except (KernelUnavailable, OSError) as exc:
            from ..obs.log import emit
            emit("noc.kernel_unavailable",
                 f"warning: compiled NoC kernel unavailable ({exc}); "
                 "networks use the reference stepper (the kernel is "
                 "built on first use and needs setuptools and a C "
                 "compiler)", error=str(exc))
            _kernel = None
    return _kernel


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
        self._sweep = kernel.sweep
        self._drain = kernel.drain
        self._stats = net.stats
        self._occ = net._source_occ
        #: Packet objects by slot (None for a free slot).
        self.packets: List[Optional[object]] = []
        self.free: List[int] = []
        #: Accepted this cycle, not yet handed to the kernel:
        #: (source port, slot, route, flits) in acceptance order.
        self.pending: List[Tuple[int, int, int, int]] = []
        self._route_ids: Dict[tuple, int] = {}
        #: Route -> ((group, phase) at planning, per-hop (group, phase)
        #: after ``next_port``) for routes that change them (two-phase
        #: CR and ROMM); the export and ejection restore them.
        self.route_states: Dict[int, tuple] = {}
        #: True once the kernel has stepped or accepted a packet since the
        #: last export.
        self.stale = False
        self.slots = array("i")
        self.routes = array("i")
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
        self.sets = list(dict.fromkeys(net.vc_config._allowed.values()))
        self._set_ids = {s: i for i, s in enumerate(self.sets)}
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
            (H_SETS, nsets * (1 + v)),
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
        Returns the slots of the packets completed this cycle, in
        ejection order (None if none)."""
        self.stale = True
        return self._sweep(self.st, self.slots, self.routes, self._stats,
                           now)

    def drain(self, now: int):
        """Hand the accepted packets to the kernel and drain the sources:
        one kernel call.  Returns the slots whose head left its FIFO."""
        self.stale = True
        pending = self.pending
        started = self._drain(self.st, self.slots, self.routes, self._occ,
                              pending, self._stats, now)
        pending.clear()
        return started

    def idle(self) -> bool:
        st = self.st
        return not (self.pending or st[H_SRCFLITS] or st[H_BUFFERED]
                    or st[H_NACTIVE])

    # -- admission ----------------------------------------------------------

    def accept(self, packet, port: int, num_flits: int) -> None:
        """Queue an admitted packet for the next drain call."""
        key = (packet.traffic_class, packet.src, packet.dest, packet.group,
               packet.intermediate, packet.phase)
        route = self._route_ids.get(key)
        if route is None:
            route = self._register_route(packet, key)
        free = self.free
        packets = self.packets
        if free:
            slot = free.pop()
            packets[slot] = packet
        else:
            slot = len(packets)
            packets.append(packet)
            self.slots.extend(_SLOT_ROW)
        self.pending.append((port, slot, route, num_flits))
        self.stale = True

    def _register_route(self, packet, key) -> int:
        """Walk ``next_port`` from the planned packet's source (as
        ``invariants.planned_route`` does) and register the hop list.

        ``next_port`` writes only ``group`` and ``phase``, so the walk
        runs on the packet itself and restores those two fields after,
        which leaves it exactly as planned (a ``copy.copy`` of a slotted
        dataclass costs more than the walk)."""
        net = self.net
        next_port = net.routing.next_port
        allowed = net.vc_config.allowed_vcs
        set_ids = self._set_ids
        tclass = packet.traffic_class
        planned = (packet.group, packet.phase)
        group = packet.group
        vcs = set_ids[allowed(tclass, group)]
        record = [0, vcs]
        states = []
        routers = net._routers
        coord = packet.src
        in_port = None                    # injection ports turn anywhere
        try:
            for _ in range(4 * net.mesh.num_nodes):
                router = routers[coord]
                direction = next_port(coord, packet)
                states.append((packet.group, packet.phase))
                if packet.group is not group:
                    group = packet.group
                    vcs = set_ids[allowed(tclass, group)]
                if direction is Direction.EJECT:
                    record += (OUT_EJECT, vcs)
                    break
                out = router._out_pos.get(direction)
                if out is None or (in_port is not None
                                   and not router.connectivity(in_port,
                                                               direction)):
                    raise RoutingViolation(
                        f"illegal turn at {coord} "
                        f"({'half' if router.spec.half else 'full'}): "
                        f"{in_port} -> {direction} for packet "
                        f"{packet.src}->{packet.dest} group={group}")
                record += (out, vcs)
                in_port = direction.opposite()
                coord = coord.neighbor(direction)
            else:
                raise RoutingViolation(
                    f"route {packet.src}->{packet.dest} group={planned[0]} "
                    f"does not terminate")
        finally:
            packet.group, packet.phase = planned
        record[RT_LEN] = len(states)
        route = len(self.routes)
        self.routes.extend(record)
        self._route_ids[key] = route
        if any(state != planned for state in states):
            self.route_states[route] = (planned, tuple(states))
        return route

    def finish(self, slot: int, packet) -> None:
        """Give an ejected packet of a state-changing route the group and
        phase its last ``next_port`` call left (the reference's value)."""
        states = self.route_states.get(self.slots[slot * SL_F + SL_ROUTE])
        if states is not None:
            packet.group, packet.phase = states[1][-1]

    # -- export -------------------------------------------------------------

    def export(self) -> None:
        """Rewrite the network's router, channel and source objects (and
        its flit counters and reassembly table) from the kernel state."""
        self.stale = False
        net = self.net
        st, slots, packets = self.st, self.slots, self.packets
        v, depth = self.v, self.depth
        pending = {slot for _p, slot, _r, _n in self.pending}

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

        queued = {}
        for port, slot, _route, _n in self.pending:
            queued.setdefault(port, []).append(packets[slot])
        p = 0
        for _coord, ports, _router in net._source_rows:
            for port in ports:
                row = st[H_SRC] + p * S_F
                fifo = deque()
                slot = st[row + S_FHEAD]
                while slot >= 0:
                    fifo.append(packets[slot])
                    slot = slots[slot * SL_F + SL_NEXT]
                fifo.extend(queued.get(p, ()))
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
        net._source_flits = st[H_SRCFLITS] + sum(
            n for _p, _s, _r, n in self.pending)

        reassembly = {}
        for slot, packet in enumerate(packets):
            if packet is None or slot in pending:
                continue
            row = slot * SL_F
            if slots[row + SL_GOT]:
                reassembly[packet.pid] = slots[row + SL_GOT]
            states = self.route_states.get(slots[row + SL_ROUTE])
            if states is not None:
                hop = slots[row + SL_HOP]
                packet.group, packet.phase = (states[1][hop - 1] if hop
                                              else states[0])
        net._reassembly = reassembly
