"""Mesh channels: pipelined flit delivery plus upstream credit return."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from .packet import Flit
from .topology import Direction, PortId


class Channel:
    """A unidirectional channel between two routers.

    Flits travel downstream with ``latency`` cycles of delay; credits travel
    upstream (toward the sending router's output port) with ``credit_delay``
    cycles of delay.  Delivery is performed by the network at the start of
    each cycle, before routers are stepped.
    """

    __slots__ = ("latency", "credit_delay", "src_router", "src_port",
                 "dst_router", "dst_port", "_flits", "_credits",
                 "flits_carried", "watch", "tracer")

    def __init__(self, latency: int = 1, credit_delay: int = 1) -> None:
        if latency < 1:
            raise ValueError("channel latency must be at least 1 cycle")
        self.latency = latency
        self.credit_delay = credit_delay
        self.src_router = None
        self.src_port: Optional[PortId] = None
        self.dst_router = None
        self.dst_port: Optional[PortId] = None
        self._flits: Deque[Tuple[int, Flit, int]] = deque()
        self._credits: Deque[Tuple[int, int]] = deque()
        self.flits_carried = 0
        #: Optional callback fired when the channel becomes busy; the
        #: network uses it to keep an active-channel set so that idle
        #: channels are skipped entirely by the cycle loop.
        self.watch = None
        #: Opt-in per-link flit tracer (``repro.telemetry``); ``None``
        #: keeps the send path at a single attribute test.
        self.tracer = None

    def connect(self, src_router, src_port: PortId,
                dst_router, dst_port: PortId) -> None:
        self.src_router = src_router
        self.src_port = src_port
        self.dst_router = dst_router
        self.dst_port = dst_port

    def send_flit(self, flit: Flit, vc: int, cycle: int) -> None:
        flits = self._flits
        # The watch only needs the idle -> busy transition (the active set
        # is a set); skip the callback while already busy.
        if self.watch is not None and not flits and not self._credits:
            self.watch(self)
        flits.append((cycle + self.latency, flit, vc))
        self.flits_carried += 1
        if self.tracer is not None:
            self.tracer.on_link(self, flit, cycle)

    def send_credit(self, vc: int, cycle: int) -> None:
        credits = self._credits
        if self.watch is not None and not credits and not self._flits:
            self.watch(self)
        credits.append((cycle + self.credit_delay, vc))

    @property
    def busy(self) -> bool:
        return bool(self._flits or self._credits)

    # -- read-only introspection (invariant checker / state dumps) ----------

    def flits_in_flight(self, vc: Optional[int] = None) -> int:
        """Flits currently travelling this channel (optionally one VC's)."""
        if vc is None:
            return len(self._flits)
        return sum(1 for _, _, fvc in self._flits if fvc == vc)

    def credits_in_flight(self, vc: Optional[int] = None) -> int:
        """Credits currently travelling upstream (optionally one VC's)."""
        if vc is None:
            return len(self._credits)
        return sum(1 for _, cvc in self._credits if cvc == vc)

    def peek_flits(self):
        """Yield (flit, vc) for every flit in flight, delivery order."""
        for _, flit, vc in self._flits:
            yield flit, vc

    def deliver(self, cycle: int) -> int:
        """Deliver all flits and credits whose delay has elapsed; returns
        the number of flits (not credits) handed to the downstream router,
        so the network knows whether any router just became busy."""
        delivered = 0
        flits = self._flits
        while flits and flits[0][0] <= cycle:
            _, flit, vc = flits.popleft()
            self.dst_router.deliver_flit(self.dst_port, vc, flit, cycle)
            delivered += 1
        credits = self._credits
        while credits and credits[0][0] <= cycle:
            _, vc = credits.popleft()
            self.src_router.deliver_credit(self.src_port, vc)
        return delivered
