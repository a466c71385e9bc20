"""Batched struct-of-arrays cycle core: the network's fast router phase.

Every :class:`~repro.noc.network.MeshNetwork` builds a
:class:`BatchedCore` at construction and steps its routers through
:meth:`BatchedCore.sweep`; the reference exhaustive scan
(``Router.step`` over every occupied router, selected by
``REPRO_REFERENCE_STEPPER=1`` or ``use_reference_stepper()``) stays as
the bit-identity oracle.  The core keeps numpy struct-of-arrays mirrors
of the per-(router, input port, VC) state that decides whether a cell
can act this cycle:

* ``head_ready[c]`` — pipeline ready time of the flit at the front of the
  cell's buffer (``NEVER`` while the buffer is empty),
* ``va_ok[c]`` — the cell holds an output VC and that VC has credits, so
  an eligible front flit is a switch request,
* ``va_need[c]`` — the front flit is a head without an output VC, so an
  eligible head must attempt route computation / VC allocation,
* ``va_blocked[c]`` — that allocation attempt is known to fail (and to
  have no side effects) until a VC frees on the cell's output port.

The reference's route+VA and switch passes then become one vectorized
sweep: a single ``(head_ready <= now) & (va_ok | (va_need & ~va_blocked))``
screen over *all* cells of the mesh finds every cell the reference scan
would observably mutate this cycle; routers with no such cell are
skipped entirely.  A skipped router's only reference-side effect is one
VA-rotation increment per occupied cycle, and the next visit replays
those increments from the ``Router._last_step`` anchor.  Only the
flagged cells are touched by Python code, in the reference's rotated
port order, driving the same ``SeparableAllocator`` pointers, channels,
tracer hooks and stats as the reference — so results stay bit-identical
(pinned by ``tests/test_stepper_equivalence.py``) and the invariant
checker, telemetry and deadlock watchdog work unchanged.

Two screening arguments skip work the reference repeats every cycle:

* A failed VC allocation mutates nothing (``free_vc`` moves its pointer
  only on success; a single eject port never rotates the eject
  pointer), and it keeps failing until an output VC of the *same
  output port* is released — so a blocked cell is skipped until the
  grant loop frees a VC there (``_blocked_lists`` gives the exact
  wake-up set).  Routers with several eject ports are exempt: their
  failed ejection allocations rotate the eject-port pointer.
* A source-drain pass that delivered nothing mutated nothing, and its
  outcome can only change when a grant pops a flit out of an
  injection-port buffer or a fresh packet heads an idle source port —
  tracked by ``MeshNetwork._source_stuck``.

The router objects stay authoritative: the arrays are read-side mirrors,
updated at the few mutation points (flit delivery, credit 0->1, VC
allocation, switch grants).  ``audit_event_scheduling`` cross-checks the
mirrors against the object state cell for cell.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .packet import RouteGroup, TrafficClass
from .router import NEVER, Router, RoutingViolation
from .topology import Direction


class BatchedCore:
    """Struct-of-arrays sweep engine attached to one ``MeshNetwork``.

    Built by the network before any traffic exists, so the mirrors start
    out empty: every cell ``NEVER`` ready, no flag set.
    """

    def __init__(self, net) -> None:
        self.net = net
        self.routers = net._router_list
        self.num_vcs = net.vc_config.num_vcs
        v = self.num_vcs
        bases: List[int] = []
        ends: List[int] = []
        cell_router: List[int] = []
        cell_info: List[tuple] = []
        total = 0
        for idx, router in enumerate(self.routers):
            bases.append(total)
            for pos, (in_port, in_vcs) in enumerate(router._ordered_inputs):
                for in_vc, vc_state in enumerate(in_vcs):
                    cell_info.append((pos, in_vc, in_port, vc_state))
            ncells = len(router._input_order) * v
            cell_router.extend([idx] * ncells)
            total += ncells
            ends.append(total)
        #: End (exclusive) cell index of each router; cells of one router
        #: are contiguous (input-position major, VC minor), so ascending
        #: cell order is exactly the reference scan's router-then-port
        #: order.
        self.ends = ends
        self.cell_router = cell_router
        #: Static per-cell identity ``(pos, in_vc, in_port, vc_state)`` —
        #: the ``_InputVc`` objects and their buffers never move.
        self.cell_info = cell_info
        self.num_cells = total
        self.head_ready = np.full(total, NEVER, dtype=np.int64)
        self.va_ok = np.zeros(total, dtype=bool)
        self.va_need = np.zeros(total, dtype=bool)
        self.va_blocked = np.zeros(total, dtype=bool)
        # Reused per-cycle scratch for the vectorized screen.
        self._elig = np.zeros(total, dtype=bool)
        self._cand = np.zeros(total, dtype=bool)
        #: Static per-router hot-loop state (see ``sweep`` for the unpack
        #: order); binding one tuple beats a dozen attribute lookups per
        #: visited router.
        self._rinfo: List[tuple] = []
        #: Per router, per output position: cell indices blocked on that
        #: port, flushed (unblocked) when the grant loop frees a VC there.
        self._blocked_lists: List[List[List[int]]] = []
        # Pure-DOR designs (``plan_writes_defaults``) admit two extra fast
        # paths: packets keep ``group == ANY`` for life (nothing mutates
        # it), so the allowed-VC tuple is a fixed per-class pair; and
        # ``next_port`` is a pure function of (coord, dest), so each
        # full-connectivity router can memoize dest -> (direction, out
        # position) — only the U-turn guard (the sole illegal full-router
        # turn a Direction input can see) survives on the hit path.
        dor_pure = getattr(net.routing, "plan_writes_defaults", False)
        self._fixed_allowed = None
        if dor_pure:
            ga = net.vc_config._allowed.get
            req = ga((TrafficClass.REQUEST, RouteGroup.ANY))
            rep = ga((TrafficClass.REPLY, RouteGroup.ANY))
            if req is not None and rep is not None:
                self._fixed_allowed = (req, rep)
        for idx, router in enumerate(self.routers):
            allocator = router._allocator
            blockable = len(router._eject_ids) <= 1
            eject_pos = (router._out_pos[router._eject_ids[0]]
                         if router._eject_ids else -1)
            outs = router._out_by_pos
            blocked = [[] for _ in outs]
            self._blocked_lists.append(blocked)
            # Per-output-position flat caches: the output ports, their
            # credit/owner lists and the channel endpoints never move after
            # ``finalize``, so the grant loop indexes plain tuples instead
            # of chasing attributes per moved flit.  ``send_flit`` is None
            # exactly for ejection ports (they have a sink, no channel).
            self._rinfo.append((
                router, bases[idx], len(router._input_order),
                router._req_masks, router._req_outs, router._req_active,
                router._out_pos,
                allocator, allocator._in_ptr, allocator._out_ptr,
                allocator._num_vcs, allocator._num_inputs,
                blockable, blocked, eject_pos, router.coord,
                router.net_index, router._grant_scratch,
                tuple(out.credits for out in outs),
                tuple(out.owner for out in outs),
                tuple(out.free_vc for out in outs),
                tuple(out.channel.send_flit
                      if out.channel is not None else None for out in outs),
                tuple(out.port_id for out in outs),
                tuple(ch.send_credit if ch is not None else None
                      for ch in router._in_channel_by_pos),
                {} if dor_pure and not router.spec.half else None,
                tuple(router._out_pos.get(p, -2)
                      if not isinstance(p, tuple) else -2
                      for p in router._input_order),
            ))
            router._soa = self
            router._soa_base = bases[idx]

    def detach(self) -> None:
        """Drop the router-side mirror hooks (network switched to the
        reference stepper)."""
        for router in self.routers:
            router._soa = None

    # -- the vectorized sweep ------------------------------------------------

    def sweep(self, now: int) -> None:
        """One router phase: screen all cells, touch only the actionable
        ones.  Twin of the reference scan's ``Router.step`` over every
        occupied router — any semantic change must land in both."""
        np.less_equal(self.head_ready, now, out=self._elig)
        # need & ~blocked (elementwise bool "greater" = and-not), then | ok.
        np.greater(self.va_need, self.va_blocked, out=self._cand)
        np.logical_or(self._cand, self.va_ok, out=self._cand)
        np.logical_and(self._cand, self._elig, out=self._cand)
        idx = np.flatnonzero(self._cand)
        if not idx.size:
            return
        cells = idx.tolist()
        cell_router = self.cell_router
        cell_info = self.cell_info
        rinfo = self._rinfo
        ends = self.ends
        vpc = self.num_vcs
        head_ready = self.head_ready
        va_ok = self.va_ok
        va_need = self.va_need
        va_blocked = self.va_blocked
        net = self.net
        net_eject = net._eject
        source_stuck = net._source_stuck
        allowed_vcs = net.vc_config.allowed_vcs
        allowed_get = net.vc_config._allowed.get
        routing = net.routing
        next_port = routing.next_port
        eject = Direction.EJECT
        fixed = self._fixed_allowed
        if fixed is not None:
            fixed_req, fixed_rep = fixed
        else:
            fixed_req = fixed_rep = None
        request_class = TrafficClass.REQUEST
        moved = 0
        i = 0
        n = len(cells)
        # Ascending cell index = ascending router index = the mesh order
        # the reference scan walks (ejection handlers and RNG draws must
        # fire in that order).
        while i < n:
            ci = cells[i]
            r = cell_router[ci]
            (router, base, n_in, req_masks, req_outs, active,
             out_pos_map,
             allocator, in_ptr, out_ptr, a_num_vcs, a_n_in,
             blockable, blocked, eject_pos, coord, node_idx, grants,
             credits_by_pos, owner_by_pos, freevc_by_pos,
             sendf_by_pos, pid_by_pos, sendc_by_pos,
             route_memo, uturn_by_pos) = rinfo[r]
            # Replay the rotation increments of the cycles this router was
            # skipped while occupied (the reference advances it every one).
            rotate = (router._va_rotate + now - router._last_step - 1) % n_in
            router._va_rotate = (rotate + 1) % n_in
            router._last_step = now
            end = ends[r]
            j = i + 1
            while j < n and cells[j] < end:
                j += 1
            tracer = router.tracer

            if j - i == 1:
                # Fast path: the router's only actionable cell.  The screen
                # conditions coincide with the switch-request conditions of
                # the reference scan, so a single candidate means at most
                # one switch request — the separable allocator trivially
                # grants it (twin of ``allocate_fast``'s pointer updates).
                i = j
                pos, in_vc, in_port, vc_state = cell_info[ci]
                buf = vc_state.buffer
                out_vc = vc_state.out_vc
                if out_vc is None:
                    # va_need: route (once) and attempt VC allocation.
                    packet = buf[0].packet
                    out_port = vc_state.out_port
                    if out_port is None:
                        memoized = (route_memo.get(packet.dest)
                                    if route_memo is not None else None)
                        if memoized is not None:
                            direction, o = memoized
                            if direction is eject:
                                out_port = vc_state.out_port = eject
                            else:
                                if o == uturn_by_pos[pos]:
                                    raise RoutingViolation(
                                        f"illegal turn at {coord} (full): "
                                        f"{in_port} -> {direction} for "
                                        f"packet {packet.src}->"
                                        f"{packet.dest} "
                                        f"group={packet.group}")
                                out_port = vc_state.out_port = direction
                                vc_state.out_pos = o
                        else:
                            direction = next_port(coord, packet)
                            if direction is eject:
                                out_port = vc_state.out_port = eject
                                if route_memo is not None:
                                    route_memo[packet.dest] = (eject, -1)
                            else:
                                if not router.connectivity(in_port,
                                                           direction):
                                    raise RoutingViolation(
                                        f"illegal turn at {coord} "
                                        f"({'half' if router.spec.half else 'full'}"
                                        f"): {in_port} -> {direction} for packet "
                                        f"{packet.src}->{packet.dest} "
                                        f"group={packet.group}")
                                out_port = vc_state.out_port = direction
                                o = out_pos_map[direction]
                                vc_state.out_pos = o
                                if route_memo is not None:
                                    route_memo[packet.dest] = (direction, o)
                    if out_port is eject:
                        router._vc_allocate(in_port, in_vc, vc_state, packet,
                                            now)
                        out_vc = vc_state.out_vc
                        if out_vc is None:
                            if blockable:
                                va_blocked[ci] = True
                                blocked[eject_pos].append(ci)
                            continue
                        va_need[ci] = False
                        va_ok[ci] = True  # ejection credits are unbounded
                    else:
                        o = vc_state.out_pos
                        if fixed is not None:
                            allowed = (fixed_req
                                       if packet.traffic_class
                                       is request_class else fixed_rep)
                        else:
                            allowed = allowed_get(
                                (packet.traffic_class, packet.group))
                            if allowed is None:
                                allowed = allowed_vcs(packet.traffic_class,
                                                      packet.group)
                        if len(allowed) == 1:
                            # Inline ``free_vc`` for the single-VC class:
                            # no rotation pointer to keep.
                            out_vc = allowed[0]
                            if owner_by_pos[o][out_vc] is not None:
                                out_vc = None
                        else:
                            out_vc = freevc_by_pos[o](allowed)
                        if out_vc is None:
                            va_blocked[ci] = True
                            blocked[o].append(ci)
                            continue
                        owner_by_pos[o][out_vc] = (in_port, in_vc)
                        vc_state.out_vc = out_vc
                        va_need[ci] = False
                        if tracer is not None:
                            tracer.on_vc_alloc(packet, coord, out_port,
                                               out_vc, now)
                        if credits_by_pos[o][out_vc] <= 0:
                            continue
                        va_ok[ci] = True
                o = vc_state.out_pos
                # iSLIP pointer updates for the uncontended grant.
                out_ptr[o] = (pos + 1) % a_n_in
                in_ptr[pos] = (in_vc + 1) % a_num_vcs
                flit = buf.pop(0)
                head_ready[ci] = buf[0].ready if buf else NEVER
                router.occupancy -= 1
                moved += 1
                credits_list = credits_by_pos[o]
                credits = credits_list[out_vc] - 1
                credits_list[out_vc] = credits
                if tracer is not None and flit.is_head:
                    tracer.on_switch(flit.packet, coord, pid_by_pos[o], now)
                send_flit = sendf_by_pos[o]
                if send_flit is None:
                    net_eject(flit, now)
                else:
                    send_flit(flit, out_vc, now)
                send_credit = sendc_by_pos[pos]
                if send_credit is not None:
                    send_credit(in_vc, now)
                else:
                    # Injection port: space freed, a stuck source node at
                    # this router can make progress again.
                    source_stuck[node_idx] = False
                if flit.is_tail:
                    owner_by_pos[o][out_vc] = None
                    vc_state.reset_route()
                    va_ok[ci] = False
                    if buf:
                        va_need[ci] = True
                    bl = blocked[o]
                    if bl:
                        for bc in bl:
                            va_blocked[bc] = False
                        del bl[:]
                elif credits == 0:
                    va_ok[ci] = False
                continue

            # General path: several actionable cells in this router.
            if rotate:
                # Cells arrive ascending (port-position major); splitting at
                # the rotation pivot preserves relative order, giving the
                # exact rotated port walk of the reference scan.
                pivot = base + rotate * vpc
                k = i
                while k < j and cells[k] < pivot:
                    k += 1
                ordered = cells[k:j] + cells[i:k]
            else:
                ordered = cells[i:j]
            i = j

            reqs = []
            conflict = False
            for ci in ordered:
                pos, in_vc, in_port, vc_state = cell_info[ci]
                if vc_state.out_vc is None:
                    # va_need cell: front flit is an eligible head without
                    # an output VC — route and attempt VC allocation,
                    # mirroring Router._route_and_allocate.
                    packet = vc_state.buffer[0].packet
                    out_port = vc_state.out_port
                    if out_port is None:
                        memoized = (route_memo.get(packet.dest)
                                    if route_memo is not None else None)
                        if memoized is not None:
                            direction, o = memoized
                            if direction is eject:
                                out_port = vc_state.out_port = eject
                            else:
                                if o == uturn_by_pos[pos]:
                                    raise RoutingViolation(
                                        f"illegal turn at {coord} (full): "
                                        f"{in_port} -> {direction} for "
                                        f"packet {packet.src}->"
                                        f"{packet.dest} "
                                        f"group={packet.group}")
                                out_port = vc_state.out_port = direction
                                vc_state.out_pos = o
                        else:
                            direction = next_port(coord, packet)
                            if direction is eject:
                                out_port = vc_state.out_port = eject
                                if route_memo is not None:
                                    route_memo[packet.dest] = (eject, -1)
                            else:
                                if not router.connectivity(in_port,
                                                           direction):
                                    raise RoutingViolation(
                                        f"illegal turn at {coord} "
                                        f"({'half' if router.spec.half else 'full'}"
                                        f"): {in_port} -> {direction} for packet "
                                        f"{packet.src}->{packet.dest} "
                                        f"group={packet.group}")
                                out_port = vc_state.out_port = direction
                                o = out_pos_map[direction]
                                vc_state.out_pos = o
                                if route_memo is not None:
                                    route_memo[packet.dest] = (direction, o)
                    if out_port is eject:
                        router._vc_allocate(in_port, in_vc, vc_state, packet,
                                            now)
                        if vc_state.out_vc is None:
                            if blockable:
                                va_blocked[ci] = True
                                blocked[eject_pos].append(ci)
                            continue
                        va_need[ci] = False
                        va_ok[ci] = True  # ejection credits are unbounded
                    else:
                        o = vc_state.out_pos
                        if fixed is not None:
                            allowed = (fixed_req
                                       if packet.traffic_class
                                       is request_class else fixed_rep)
                        else:
                            allowed = allowed_get(
                                (packet.traffic_class, packet.group))
                            if allowed is None:
                                allowed = allowed_vcs(packet.traffic_class,
                                                      packet.group)
                        if len(allowed) == 1:
                            vc = allowed[0]
                            if owner_by_pos[o][vc] is not None:
                                vc = None
                        else:
                            vc = freevc_by_pos[o](allowed)
                        if vc is None:
                            va_blocked[ci] = True
                            blocked[o].append(ci)
                            continue
                        owner_by_pos[o][vc] = (in_port, in_vc)
                        vc_state.out_vc = vc
                        va_need[ci] = False
                        if tracer is not None:
                            tracer.on_vc_alloc(packet, coord, out_port, vc,
                                               now)
                        if credits_by_pos[o][vc] <= 0:
                            continue
                        va_ok[ci] = True
                # va_ok cell (or a va_need cell that just allocated with
                # credits): an eligible switch request.
                o = vc_state.out_pos
                for req in reqs:
                    if req[0] == pos or req[2] == o:
                        conflict = True
                        break
                reqs.append((pos, in_vc, o, ci, vc_state))

            if not reqs:
                continue
            if conflict:
                # Contended: drive the separable allocator exactly as the
                # reference scan does.
                for pos, in_vc, o, ci, vc_state in reqs:
                    m = req_masks[pos]
                    if not m:
                        active.append(pos)
                    req_masks[pos] = m | (1 << in_vc)
                    req_outs[pos][in_vc] = o
                # Stage order is part of the determinism contract: the
                # allocator walks active inputs in ascending position order.
                active.sort()
                allocator.allocate_fast(active, req_masks, req_outs, grants)
                for pos in active:
                    req_masks[pos] = 0
                del active[:]
                granted = [(pos, vc_idx, o, base + pos * vpc + vc_idx, None)
                           for pos, vc_idx, o in grants]
                del grants[:]
            else:
                # No two requests share an input position or an output
                # port: input-first allocation grants every one of them,
                # advancing exactly the granted pointers.  Sorting gives
                # the allocator's ascending-input grant order (positions
                # are distinct, so later tuple fields never compare).
                reqs.sort()
                granted = reqs

            for pos, vc_idx, o, ci, vc_state in granted:
                if vc_state is None:
                    vc_state = cell_info[ci][3]
                else:
                    # Inline grant: the allocator never ran, so advance
                    # the iSLIP pointers here (grant-only updates).
                    out_ptr[o] = (pos + 1) % a_n_in
                    in_ptr[pos] = (vc_idx + 1) % a_num_vcs
                buf = vc_state.buffer
                flit = buf.pop(0)
                head_ready[ci] = buf[0].ready if buf else NEVER
                router.occupancy -= 1
                moved += 1
                out_vc = vc_state.out_vc
                credits_list = credits_by_pos[o]
                credits = credits_list[out_vc] - 1
                credits_list[out_vc] = credits
                if tracer is not None and flit.is_head:
                    tracer.on_switch(flit.packet, coord, pid_by_pos[o], now)
                send_flit = sendf_by_pos[o]
                if send_flit is None:
                    net_eject(flit, now)
                else:
                    send_flit(flit, out_vc, now)
                send_credit = sendc_by_pos[pos]
                if send_credit is not None:
                    send_credit(vc_idx, now)
                else:
                    source_stuck[node_idx] = False
                if flit.is_tail:
                    owner_by_pos[o][out_vc] = None
                    vc_state.reset_route()
                    va_ok[ci] = False
                    if buf:
                        va_need[ci] = True
                    bl = blocked[o]
                    if bl:
                        for bc in bl:
                            va_blocked[bc] = False
                        del bl[:]
                elif credits == 0:
                    va_ok[ci] = False

        self.net._buffered_flits -= moved
        stats = self.net.stats
        stats.crossbar_traversals += moved
        stats.buffer_reads += moved
