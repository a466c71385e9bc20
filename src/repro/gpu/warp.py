"""Warp state and the round-robin warp scheduler.

Each core keeps a dispatch queue of up to 32 ready warps (1024 scalar
threads, Table II) and issues among them round-robin.  A warp blocks on
outstanding global loads and on a short pipeline latency after arithmetic;
fine-grain multithreading across warps is what hides memory latency — and
what turns NoC/DRAM bandwidth, not latency, into the performance limiter
(Section III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: Sentinel wake time for "no timed wake" (an external event must wake us).
NEVER = 1 << 62


@dataclass
class Warp:
    warp_id: int
    #: Cycle at which the warp may issue again (pipeline hazard model).
    ready_at: int = 0
    #: Outstanding global-load lines this warp waits on; > 0 means blocked.
    pending_loads: int = 0
    #: Retired scalar instructions (for per-warp fairness statistics).
    retired: int = 0
    #: Set when the workload says this warp has no more work.
    finished: bool = False

    def blocked(self, cycle: int) -> bool:
        return (self.finished or self.pending_loads > 0
                or self.ready_at > cycle)


class RoundRobinWarpScheduler:
    """Round-robin among ready warps (Table II's scheduling policy)."""

    def __init__(self, warps: List[Warp]) -> None:
        if not warps:
            raise ValueError("need at least one warp")
        self.warps = warps
        self._pointer = 0

    def pick(self, cycle: int) -> Optional[Warp]:
        """The first unblocked warp from the round-robin pointer, or
        ``None``; a grant moves the pointer past it."""
        return self.pick_or_wake(cycle)[0]

    def pick_or_wake(self, cycle: int) -> Tuple[Optional[Warp], int]:
        """``pick`` plus, when nothing is ready, the earliest cycle a warp
        unblocks by timeout alone (``NEVER`` when every blocked warp waits
        on loads or is finished — a reply event must wake the core then).
        Reads ``Warp.blocked``'s three fields inline: this runs on every
        core step."""
        n = len(self.warps)
        warps = self.warps
        pointer = self._pointer
        wake = NEVER
        for offset in range(n):
            warp = warps[(pointer + offset) % n]
            if warp.finished or warp.pending_loads > 0:
                continue
            ready_at = warp.ready_at
            if ready_at <= cycle:
                self._pointer = (pointer + offset + 1) % n
                return warp, 0
            if ready_at < wake:
                wake = ready_at
        return None, wake

    def all_finished(self) -> bool:
        return all(w.finished for w in self.warps)
