"""SIMT compute core (Figure 4).

Execution-driven warp model: 8-wide SIMD pipelines execute 32-thread warps
over four core clocks; a dispatch queue of up to 32 warps is scheduled
round-robin; global memory instructions pass through coalescing, the L1
data cache (write-back, write-allocate) and a 64-entry MSHR file, producing
8 B read requests and 64 B write(-back) requests into the request network.
Read replies fill the L1 and wake blocked warps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

from ..mem.cache import CacheConfig, SetAssociativeCache
from ..mem.mshr import MshrFile
from ..noc.packet import Packet, read_request, write_request
from ..noc.topology import Coord
from .instruction import InstrKind, WarpInstruction
from .warp import RoundRobinWarpScheduler, Warp


@dataclass(frozen=True)
class CoreConfig:
    """Per-core machine parameters (Table II)."""

    warp_size: int = 32
    simd_width: int = 8
    max_warps: int = 32
    mshr_entries: int = 64
    l1_size_bytes: int = 16 * 1024
    l1_line_bytes: int = 64
    l1_associativity: int = 8
    alu_latency: int = 16            # core cycles before the warp re-issues
    shared_latency: int = 24
    l1_hit_latency: int = 12
    store_latency: int = 4

    @property
    def issue_interval(self) -> int:
        """Core cycles one warp instruction occupies the issue stage."""
        return self.warp_size // self.simd_width


@dataclass
class MemoryToken:
    """Request payload: everything needed to service and return a miss."""

    core: Coord
    line_addr: int       # global line address (L1 fill key)
    local_addr: int      # channel-local address (MC/DRAM key)


class SimtCore:
    """One compute node.  ``step`` runs at the core clock; replies arrive
    via ``on_reply`` from the reply network's ejection handler."""

    def __init__(self, coord: Coord, config: CoreConfig, program,
                 route_request: Callable[[int], Tuple[Coord, int]],
                 num_warps: Optional[int] = None) -> None:
        self.coord = coord
        self.config = config
        self.program = program
        self.route_request = route_request
        n = num_warps if num_warps is not None else config.max_warps
        if not 1 <= n <= config.max_warps:
            raise ValueError(f"warp count {n} outside 1..{config.max_warps}")
        self.warps = [Warp(i) for i in range(n)]
        self.scheduler = RoundRobinWarpScheduler(self.warps)
        self.l1 = SetAssociativeCache(CacheConfig(
            config.l1_size_bytes, config.l1_line_bytes,
            config.l1_associativity))
        self.mshrs = MshrFile(config.mshr_entries)
        #: Request packets waiting to enter the NoC (drained by the chip
        #: model at the interconnect clock; bounded in effect by the MSHRs).
        self.outbound: Deque[Packet] = deque()
        self._stalled: List[Optional[WarpInstruction]] = [None] * n
        #: Per warp, the (L1, MSHR) versions at its last structural stall:
        #: a retry at equal versions fails again without a probe.  Versions
        #: only grow, so a memo never matches once its instruction issued.
        self._stall_versions: List[Optional[Tuple[int, int]]] = [None] * n
        self._issue_busy_until = 0
        self._issue_interval = config.issue_interval
        #: Earliest core cycle the next ``step`` can do anything.  The
        #: chip's event-driven loop skips the call entirely before then; a
        #: skipped step is provably a no-op (every early return above the
        #: wake assignment mutates nothing).  Reset to 0 by ``on_reply``.
        self.wake = 0
        # Statistics.
        self.retired_scalar = 0
        self.issued_instructions = 0
        self.structural_stalls = 0
        self.global_loads = 0
        self.global_stores = 0

    # -- execution -----------------------------------------------------------

    def step(self, cycle: int) -> None:
        if self._issue_busy_until > cycle:
            self.wake = self._issue_busy_until
            return
        warp, wake = self.scheduler.pick_or_wake(cycle)
        if warp is None:
            self.wake = wake
            return
        warp_id = warp.warp_id
        instr = self._stalled[warp_id]
        if instr is None:
            instr = self.program.next_instruction(self.coord, warp_id)
            if instr is None:
                warp.finished = True
                self.wake = cycle + 1
                return
        kind = instr.kind
        if kind is InstrKind.ALU:
            warp.ready_at = cycle + self.config.alu_latency
        elif kind is InstrKind.SHARED:
            warp.ready_at = cycle + self.config.shared_latency
        elif self._issue_global(warp, instr, cycle):
            self._stalled[warp_id] = None
        else:
            # Structural stall: retry the same instruction next time.
            self._stalled[warp_id] = instr
            self.structural_stalls += 1
            warp.ready_at = cycle + 1
            self.wake = cycle + 1
            return
        warp.retired += instr.active_threads
        self.retired_scalar += instr.active_threads
        self.issued_instructions += 1
        self._issue_busy_until = cycle + self._issue_interval
        self.wake = self._issue_busy_until

    def _issue_global(self, warp: Warp, instr: WarpInstruction,
                      cycle: int) -> bool:
        l1 = self.l1
        mshrs = self.mshrs
        versions = (l1.version, mshrs.version)
        if self._stall_versions[warp.warp_id] == versions:
            return False
        # One pass over the distinct lines (first-appearance order): L1
        # probe, MSHR lookup and merge limit.
        hits = []
        misses = []
        new_entries = 0
        for line in dict.fromkeys(instr.line_addrs):
            if l1.contains(line):
                hits.append(line)
                continue
            entry = mshrs.lookup(line)
            if entry is None:
                new_entries += 1
            elif len(entry.waiters) >= mshrs.max_merged:
                self._stall_versions[warp.warp_id] = versions
                return False                       # merge limit reached
            misses.append(line)
        if len(mshrs) + new_entries > mshrs.num_entries:
            self._stall_versions[warp.warp_id] = versions
            return False
        # Resources are available: commit all effects.
        is_store = instr.kind is InstrKind.GLOBAL_STORE
        for line in hits:
            l1.access(line, is_write=is_store)
        blocking = 0
        for line in misses:
            l1.misses += 1           # probe-without-allocate: count it here
            entry = mshrs.allocate(
                line, (warp if not is_store else None, is_store))
            if not entry.issued:
                entry.issued = True
                self._send_read_request(line, cycle)
            if not is_store:
                blocking += 1
        if is_store:
            self.global_stores += 1
            warp.ready_at = cycle + self.config.store_latency
        else:
            self.global_loads += 1
            warp.pending_loads += blocking
            if blocking == 0:
                warp.ready_at = cycle + self.config.l1_hit_latency
        return True

    # -- memory-system plumbing ----------------------------------------------

    def _send_read_request(self, line_addr: int, cycle: int) -> None:
        mc, local = self.route_request(line_addr)
        token = MemoryToken(self.coord, line_addr, local)
        self.outbound.append(read_request(self.coord, mc, created=cycle,
                                          payload=token))

    def _send_write_request(self, line_addr: int, cycle: int) -> None:
        mc, local = self.route_request(line_addr)
        token = MemoryToken(self.coord, line_addr, local)
        self.outbound.append(write_request(self.coord, mc, created=cycle,
                                           payload=token))

    def on_reply(self, packet: Packet, cycle: int) -> None:
        """Reply-network ejection handler: an L1 fill returned."""
        token = packet.payload
        if not isinstance(token, MemoryToken):
            raise TypeError("reply payload is not a MemoryToken")
        waiters = self.mshrs.complete(token.line_addr)
        dirty = any(is_store for _w, is_store in waiters)
        result = self.l1.fill(token.line_addr, dirty=dirty)
        if result.writeback is not None:
            self._send_write_request(result.writeback, cycle)
        for warp, is_store in waiters:
            if is_store or warp is None:
                continue
            warp.pending_loads -= 1
            if warp.pending_loads < 0:
                raise RuntimeError("pending-load underflow")
        # A warp may have unblocked: step again at the next opportunity.
        self.wake = 0

    def flush_l1(self, cycle: int) -> int:
        """Software-managed coherence (Section II): flush every dirty L1
        line to the L2 as a 64 B write request.  Returns the number of
        lines written back."""
        lines = self.l1.drain_dirty_lines()
        for line_addr in lines:
            self._send_write_request(line_addr, cycle)
        return len(lines)

    # -- status ----------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return (self.scheduler.all_finished() and not self.outbound
                and len(self.mshrs) == 0)

    def ipc(self, core_cycles: int) -> float:
        """Scalar instructions per core clock."""
        return self.retired_scalar / core_cycles if core_cycles else 0.0

    def warp_fairness(self) -> float:
        """Min/max ratio of per-warp retired instructions — the paper notes
        (Section V-B) that global fairness effects can slow a few warps and
        cost overall performance (WP's 6 % loss under CP)."""
        retired = [w.retired for w in self.warps]
        top = max(retired)
        return min(retired) / top if top else 1.0
