"""GDDR3 DRAM channel with FR-FCFS scheduling.

Models one memory channel per MC node with the paper's GDDR3 timing
(Table II, in memory-clock cycles): tCL=9, tRP=13, tRC=34, tRAS=21,
tRCD=12, tRRD=8; an out-of-order FR-FCFS scheduler over a 32-entry request
queue; banked row buffers; and a data bus moving 16 B per memory clock
(a 64 B access occupies the bus for 4 cycles).

DRAM *efficiency* — the fraction of time the data pins are busy while
requests are pending — is tracked because the paper uses it to explain the
multi-ejection-port speedups of Figure 19 (e.g. FWT going from 57 % to
65 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

#: ``GddrChannel.next_event`` of a channel with nothing queued or in flight.
NEVER = 1 << 62


@dataclass(frozen=True)
class DramTiming:
    """GDDR3 timing parameters in memory-clock cycles (Table II)."""

    tCL: int = 9
    tRP: int = 13
    tRC: int = 34
    tRAS: int = 21
    tRCD: int = 12
    tRRD: int = 8
    #: Data-bus bytes per memory clock (Section III-A footnote: 16 B/mclk).
    bytes_per_cycle: int = 16
    num_banks: int = 8
    row_bytes: int = 2048
    queue_capacity: int = 32

    def burst_cycles(self, size_bytes: int) -> int:
        return max(1, -(-size_bytes // self.bytes_per_cycle))


@dataclass
class DramRequest:
    addr: int
    is_write: bool
    size_bytes: int = 64
    arrival: int = 0
    payload: object = None
    # Filled in by the channel.
    bank: int = -1
    row: int = -1
    issue_time: int = -1
    complete_time: int = -1
    row_hit: bool = False


class _Bank:
    __slots__ = ("open_row", "busy_until", "last_activate")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.busy_until = -1
        self.last_activate = -(1 << 30)


class GddrChannel:
    """One GDDR3 channel; stepped once per memory clock.

    ``next_event`` is the earliest memory cycle at which ``step`` can
    complete or issue anything: the smallest ``complete_time`` in flight
    or the smallest ``busy_until`` among the banks of queued requests
    (``NEVER`` when both are empty).  Before it, ``step`` only advances
    ``now``, ``pending_cycles`` and ``data_busy_cycles``, so the compiled
    memory side (``mem/nodes.py``) makes exactly those updates itself and
    skips the step.  The reference chip loop steps every channel every
    tick, so the field is the oracle the kernel's gate is checked
    against.
    """

    def __init__(self, timing: DramTiming = DramTiming()) -> None:
        self.timing = timing
        self._queue: List[DramRequest] = []
        self._in_flight: List[DramRequest] = []
        self._banks = [_Bank() for _ in range(timing.num_banks)]
        self._bus_free_at = 0
        self._last_activate_any = -(1 << 30)
        #: Smallest ``complete_time`` in flight (``NEVER`` when none).
        self._next_completion = NEVER
        self.next_event = NEVER
        # Statistics.
        self.requests_serviced = 0
        self.row_hits = 0
        self.row_misses = 0
        self.data_busy_cycles = 0
        self.pending_cycles = 0
        self.now = 0

    # -- interface used by the memory controller -----------------------------

    def can_accept(self) -> bool:
        return len(self._queue) < self.timing.queue_capacity

    @property
    def queue_occupancy(self) -> int:
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return bool(self._queue or self._in_flight)

    def outstanding_requests(self) -> List[DramRequest]:
        """Every request not yet completed (queued or issued) — read-only
        introspection for the system invariant checker."""
        return list(self._queue) + list(self._in_flight)

    def enqueue(self, request: DramRequest, now: int) -> None:
        if not self.can_accept():
            raise RuntimeError("DRAM request queue full; check can_accept")
        request.arrival = now
        request.bank, request.row = self.map_address(request.addr)
        self._queue.append(request)
        ready = self._banks[request.bank].busy_until
        if ready < self.next_event:
            self.next_event = ready

    def map_address(self, addr: int) -> tuple:
        """Bank and row of an address local to this channel."""
        t = self.timing
        row_id = addr // t.row_bytes
        return row_id % t.num_banks, row_id // t.num_banks

    # -- timing --------------------------------------------------------------

    def step(self, now: int) -> Sequence[DramRequest]:
        """Advance to memory-clock cycle ``now``; returns the requests
        completed at it, in completion order (the owner handles them:
        the channel keeps no reference to it)."""
        self.now = now
        if self.busy:
            self.pending_cycles += 1
            if self._bus_free_at > now:
                self.data_busy_cycles += 1
        done = self._complete(now)
        self._issue(now)
        return done

    def _complete(self, now: int) -> Sequence[DramRequest]:
        if not self._in_flight:
            return ()
        done = []
        still = []
        next_completion = NEVER
        for request in self._in_flight:
            if request.complete_time <= now:
                self.requests_serviced += 1
                done.append(request)
            else:
                still.append(request)
                if request.complete_time < next_completion:
                    next_completion = request.complete_time
        if done:
            self._in_flight = still
            self._next_completion = next_completion
            self._update_next_event()
        return done

    def _issue(self, now: int) -> None:
        queue = self._queue
        if not queue:
            return
        t = self.timing
        banks = self._banks
        # FR-FCFS in one scan: the oldest ready row hit, otherwise the
        # oldest request whose bank can start a new row cycle.
        chosen_index = -1
        for index, request in enumerate(queue):
            bank = banks[request.bank]
            if bank.busy_until > now:
                continue
            if bank.open_row == request.row:
                chosen_index = index
                break
            if chosen_index < 0:
                chosen_index = index
        if chosen_index < 0:
            return
        chosen = queue.pop(chosen_index)

        bank = banks[chosen.bank]
        cas_time = now
        if bank.open_row == chosen.row:
            chosen.row_hit = True
            self.row_hits += 1
        else:
            self.row_misses += 1
            precharge = now
            if bank.open_row is not None:
                # tRAS: the row must have been open long enough to close.
                precharge = max(precharge, bank.last_activate + t.tRAS)
                activate = precharge + t.tRP
            else:
                activate = precharge
            # Activate-to-activate constraints delay the command rather
            # than block the scheduler: tRC within the bank, tRRD across
            # banks (commands to other banks may proceed meanwhile).
            activate = max(activate,
                           bank.last_activate + t.tRC,
                           self._last_activate_any + t.tRRD)
            bank.last_activate = activate
            self._last_activate_any = max(self._last_activate_any, activate)
            bank.open_row = chosen.row
            cas_time = activate + t.tRCD

        burst = t.burst_cycles(chosen.size_bytes)
        data_start = max(cas_time + t.tCL, self._bus_free_at)
        data_end = data_start + burst
        self._bus_free_at = data_end
        bank.busy_until = data_end
        chosen.issue_time = now
        chosen.complete_time = data_end
        self._in_flight.append(chosen)
        if data_end < self._next_completion:
            self._next_completion = data_end
        self._update_next_event()

    def _update_next_event(self) -> None:
        """Recompute ``next_event`` from the requests left in flight and
        queued.  Called whenever either set shrinks; a bank's
        ``busy_until`` changes only in ``_issue``, which calls it too."""
        next_event = self._next_completion
        banks = self._banks
        for request in self._queue:
            ready = banks[request.bank].busy_until
            if ready < next_event:
                next_event = ready
        self.next_event = next_event

    # -- stats ---------------------------------------------------------------

    def efficiency(self) -> float:
        """Data-pin utilisation while requests are pending (Section V-E)."""
        if not self.pending_cycles:
            return 0.0
        return self.data_busy_cycles / self.pending_cycles

    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0
