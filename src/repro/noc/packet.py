"""Packets and flits.

Traffic in the accelerator is many-to-few-to-many (Figure 1): compute cores
send small read requests (8 B) and less frequent large write requests (64 B)
to memory controllers, which answer with large read replies (64 B).  A packet
is segmented into flits based on the channel width of the network carrying it
(Section V, Table III: 16 B flits in the baseline).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import List, Optional

#: Packet payload sizes in bytes (Section III-D).
READ_REQUEST_BYTES = 8
WRITE_REQUEST_BYTES = 64
READ_REPLY_BYTES = 64


class TrafficClass(IntEnum):
    """Protocol classes.  Separate (virtual or physical) networks carry the
    two classes to avoid protocol (request-reply) deadlock."""

    REQUEST = 0
    REPLY = 1


class RouteGroup(Enum):
    """Which dimension-order a packet follows; selects the routing VC.

    ``ANY`` is used by plain DOR configurations where every VC of the
    protocol class is equivalent.  Checkerboard routing (Section IV-B)
    dedicates one VC to XY-routed and one to YX-routed packets, like O1Turn.
    """

    ANY = "any"
    XY = "xy"
    YX = "yx"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with equality; it runs in C, where Enum's hashes the
    # name in Python (a route key holds a group).  Like Enum's string
    # hash, it varies between processes, so no result may depend on it.
    __hash__ = object.__hash__


_packet_ids = itertools.count()


def flit_count(size_bytes: int, channel_width: int) -> int:
    """Flits of a ``size_bytes`` packet on a ``channel_width``-byte
    channel (at least one)."""
    if channel_width <= 0:
        raise ValueError("channel width must be positive")
    return max(1, -(-size_bytes // channel_width))


@dataclass(slots=True)
class Packet:
    """A message travelling through one network.

    ``src``, ``dest`` and ``intermediate`` are node ids: a node's index in
    its mesh (``Mesh.index``, ``y * cols + x``).  The routing plan
    (``group``, ``intermediate``) is attached at injection time by the
    routing algorithm.  ``phase`` tracks progress of two-phase
    checkerboard routes: 0 while heading to the intermediate full-router,
    1 afterwards.  The flit count is not stored: the network carrying the
    packet derives it from ``size_bytes`` and its channel width.
    """

    src: int
    dest: int
    size_bytes: int
    traffic_class: TrafficClass
    created: int = 0
    #: The counter's own ``__next__``: a packet id costs no Python frame.
    pid: int = field(default_factory=_packet_ids.__next__)

    # Routing state
    group: RouteGroup = RouteGroup.ANY
    intermediate: Optional[int] = None
    phase: int = 1

    # Opaque payload for closed-loop simulation (e.g. the memory request).
    payload: object = None

    # Timestamps filled in by the network.
    injected: int = -1
    ejected: int = -1

    def make_flits(self, channel_width: int) -> List["Flit"]:
        n = flit_count(self.size_bytes, channel_width)
        return [
            Flit(packet=self, index=i, is_head=(i == 0), is_tail=(i == n - 1))
            for i in range(n)
        ]

    @property
    def latency(self) -> int:
        """Total latency: creation to tail ejection."""
        if self.ejected < 0:
            raise ValueError("packet not yet ejected")
        return self.ejected - self.created

    @property
    def network_latency(self) -> int:
        """Injection (first flit enters the router) to tail ejection."""
        if self.ejected < 0 or self.injected < 0:
            raise ValueError("packet not yet through the network")
        return self.ejected - self.injected


@dataclass(slots=True)
class Flit:
    """One channel-width unit of a packet (wormhole flow control)."""

    packet: Packet
    index: int
    is_head: bool
    is_tail: bool
    #: Earliest cycle this flit may leave the current router (models the
    #: router pipeline depth; set on buffer insertion).
    ready: int = 0

    @property
    def dest(self) -> int:
        return self.packet.dest

    def __repr__(self) -> str:
        kind = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"Flit(p{self.packet.pid}[{self.index}]{kind}->{self.dest})"


def read_request(src: int, dest: int, created: int = 0,
                 payload: object = None) -> Packet:
    """An 8-byte read-request packet (core -> MC)."""
    return Packet(src, dest, READ_REQUEST_BYTES, TrafficClass.REQUEST,
                  created=created, payload=payload)


def write_request(src: int, dest: int, created: int = 0,
                  payload: object = None) -> Packet:
    """A 64-byte write-request packet (core -> MC)."""
    return Packet(src, dest, WRITE_REQUEST_BYTES, TrafficClass.REQUEST,
                  created=created, payload=payload)


def read_reply(src: int, dest: int, created: int = 0,
               payload: object = None) -> Packet:
    """A 64-byte read-reply packet (MC -> core)."""
    return Packet(src, dest, READ_REPLY_BYTES, TrafficClass.REPLY,
                  created=created, payload=payload)
