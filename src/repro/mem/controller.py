"""Memory-controller node: L2 bank + GDDR3 channel + reply injection.

Each MC node (Figure 5) pairs a 128 KB shared-L2 bank with one GDDR3
channel.  Read requests probe the L2; misses go to DRAM through the 32-entry
FR-FCFS queue.  Read replies (64 B) are injected into the reply network —
and when the reply network cannot accept them, the controller *stalls*,
which is the bottleneck quantified in Figure 11 and attacked with the extra
MC injection ports of Section IV-D.

The controller straddles two clock domains: `icnt_step` runs at the
interconnect/L2 clock (602 MHz), `dram_step` at the memory clock (1107 MHz).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from ..noc.packet import Packet, TrafficClass, read_reply
from ..noc.topology import Coord
from .cache import CacheConfig, SetAssociativeCache
from .dram import DramRequest, DramTiming, GddrChannel

#: Addresses are low-order interleaved among MCs every 256 bytes
#: (Section II) to reduce hot-spots.
MC_INTERLEAVE_BYTES = 256


class AddressMap:
    """Distributes the flat global address space over the MC nodes."""

    def __init__(self, num_mcs: int,
                 interleave: int = MC_INTERLEAVE_BYTES) -> None:
        if num_mcs < 1:
            raise ValueError("need at least one MC")
        self.num_mcs = num_mcs
        self.interleave = interleave

    def mc_index(self, addr: int) -> int:
        return (addr // self.interleave) % self.num_mcs

    def local_address(self, addr: int) -> int:
        """Channel-local address with the MC-selection bits squeezed out,
        so consecutive chunks at one MC stay row-buffer friendly."""
        chunk = addr // self.interleave
        return (chunk // self.num_mcs) * self.interleave + (
            addr % self.interleave)


@dataclass(frozen=True)
class McConfig:
    l2_size_bytes: int = 128 * 1024
    l2_line_bytes: int = 64
    l2_associativity: int = 8
    l2_latency: int = 8              # interconnect cycles
    #: Requests popped from the input queue per interconnect cycle.
    requests_per_cycle: int = 1
    #: Completed replies held locally before the DRAM pipeline is gated.
    reply_backlog_limit: int = 8
    dram: DramTiming = DramTiming()


class MemoryController:
    """One MC node of the closed-loop system.  Its replies name it by
    ``node``, its node id on the chip's network."""

    def __init__(self, coord: Coord, config: McConfig = McConfig(),
                 inject: Optional[Callable[[Packet, int], bool]] = None,
                 node: Optional[int] = None) -> None:
        self.coord = coord
        self.node = node
        self.config = config
        self.inject = inject
        self.l2 = SetAssociativeCache(CacheConfig(
            config.l2_size_bytes, config.l2_line_bytes,
            config.l2_associativity))
        self.dram = GddrChannel(config.dram)
        #: (ready_cycle, packet) input pipeline modelling L2 lookup latency.
        self._input: Deque[Tuple[int, Packet]] = deque()
        self._replies: Deque[Packet] = deque()
        self._writebacks: Deque[int] = deque()
        self._icnt_cycle = 0
        # Statistics.
        self.cycles = 0
        self.blocked_cycles = 0        # reply network refused our head reply
        self.requests_received = 0
        self.reads = 0
        self.writes = 0
        self.replies_sent = 0
        #: High-water mark of the input queue — exposes the temporary
        #: hot-spots the paper observes in closed-loop runs (Section V-E).
        self.max_queue_depth = 0

    # -- network-facing ------------------------------------------------------

    def on_packet(self, packet: Packet, cycle: int) -> None:
        """Ejection handler: a request packet arrived from the NoC.  It is
        checked before anything is counted or queued, as the compiled
        memory side's ``memory_request`` checks it."""
        if packet.traffic_class is not TrafficClass.REQUEST:
            raise ValueError("MC received a non-request packet")
        addr = getattr(packet.payload, "local_addr", None)
        if not (isinstance(addr, int) and 0 <= addr < 1 << 62):
            raise ValueError("request payload must expose .local_addr "
                             "(channel-local), an int in [0, 2**62)")
        self.requests_received += 1
        self._input.append((cycle + self.config.l2_latency, packet))
        if len(self._input) > self.max_queue_depth:
            self.max_queue_depth = len(self._input)

    # -- clocking ------------------------------------------------------------

    def icnt_step(self, cycle: int) -> None:
        # Contract with the idle tick of the compiled memory side
        # (``memory_step`` in ``gpu/_core_kernel.c``): when ``_replies``
        # and ``_writebacks`` are empty and ``_input`` is empty or its
        # head is still in its L2-latency wait (``_input[0][0] > cycle``),
        # this method mutates exactly ``_icnt_cycle`` and ``cycles`` (the
        # drains below are no-ops and ``_process_input`` returns at
        # once), so the kernel makes those two updates and skips the
        # rest.  Keep both in sync.
        self._icnt_cycle = cycle
        self.cycles += 1
        self._drain_replies(cycle)
        self._process_input(cycle)
        self._drain_writebacks()

    def dram_step(self, mclk: int) -> None:
        # After the channel's issue, which reads nothing _dram_done writes.
        for request in self.dram.step(mclk):
            self._dram_done(request)

    # -- internals -----------------------------------------------------------

    def _drain_replies(self, cycle: int) -> None:
        blocked = False
        while self._replies:
            if self.inject is None:
                raise RuntimeError("MC has no reply-injection hook")
            if self.inject(self._replies[0], cycle):
                self._replies.popleft()
                self.replies_sent += 1
            else:
                blocked = True
                break
        if blocked:
            self.blocked_cycles += 1

    def _gated(self) -> bool:
        """The paper's Figure 11 bottleneck: when replies back up, the MC
        cannot process further requests."""
        return len(self._replies) >= self.config.reply_backlog_limit

    def _process_input(self, cycle: int) -> None:
        for _ in range(self.config.requests_per_cycle):
            if not self._input or self._input[0][0] > cycle:
                return
            if self._gated():
                return
            ready, packet = self._input[0]
            addr = packet.payload.local_addr
            if packet.size_bytes <= 8:          # read request
                if self.l2.access(addr, is_write=False).hit:
                    self._input.popleft()
                    self.reads += 1
                    self._send_reply(packet, cycle)
                elif self.dram.can_accept():
                    self._input.popleft()
                    self.reads += 1
                    self.dram.enqueue(DramRequest(
                        addr, is_write=False, size_bytes=64,
                        payload=packet), cycle)
                else:
                    return                       # DRAM queue full: stall
            else:                                # 64 B write request
                self._input.popleft()
                self.writes += 1
                result = self.l2.write_allocate_no_fetch(addr)
                if result.writeback is not None:
                    self._writebacks.append(result.writeback)

    def _drain_writebacks(self) -> None:
        while self._writebacks and self.dram.can_accept():
            line = self._writebacks.popleft()
            self.dram.enqueue(DramRequest(line, is_write=True,
                                          size_bytes=64), self._icnt_cycle)

    def _dram_done(self, request: DramRequest) -> None:
        if request.is_write:
            return
        packet = request.payload
        result = self.l2.fill(request.addr)
        if result.writeback is not None:
            self._writebacks.append(result.writeback)
        self._send_reply(packet, self._icnt_cycle)

    def _send_reply(self, request_packet: Packet, cycle: int) -> None:
        reply = read_reply(self.node, request_packet.src, created=cycle,
                           payload=request_packet.payload)
        self._replies.append(reply)

    # -- read-only introspection (invariant checker) -------------------------

    def pending_request_packets(self) -> List[Packet]:
        """Request packets sitting in the L2-lookup input pipeline."""
        return [packet for _ready, packet in self._input]

    def queued_replies(self) -> List[Packet]:
        """Reply packets waiting for the reply network to accept them."""
        return list(self._replies)

    @property
    def input_queue_depth(self) -> int:
        """Requests sitting in the L2-lookup input pipeline right now."""
        return len(self._input)

    @property
    def reply_backlog_depth(self) -> int:
        """Replies waiting for the reply network to accept them."""
        return len(self._replies)

    @property
    def gated(self) -> bool:
        """True while the reply backlog gates request processing — the
        instantaneous form of the Figure 11 stall state, sampled by the
        telemetry time series."""
        return self._gated()

    # -- stats ---------------------------------------------------------------

    def stall_fraction(self) -> float:
        """Fraction of interconnect cycles the reply injection was blocked
        (Figure 11)."""
        return self.blocked_cycles / self.cycles if self.cycles else 0.0

    @property
    def idle(self) -> bool:
        return not (self._input or self._replies or self._writebacks
                    or self.dram.busy)
