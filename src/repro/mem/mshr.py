"""Miss-status holding registers.

Each compute core has a limited number of MSHRs (64, Table II).  An MSHR
entry tracks one outstanding cache-line fill; subsequent misses to the same
line merge into the entry instead of issuing duplicate requests.  When the
MSHR file is full the core can no longer issue global memory accesses —
this is one of the closed-loop feedback paths that couples compute
throughput to NoC and DRAM behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class MshrEntry:
    line_addr: int
    #: Opaque waiter tokens (warp ids) released when the fill returns.
    waiters: List[object] = field(default_factory=list)
    issued: bool = False


class MshrFile:
    """A fixed-capacity MSHR file with merging."""

    def __init__(self, num_entries: int = 64,
                 max_merged: int = 32) -> None:
        if num_entries < 1:
            raise ValueError("need at least one MSHR entry")
        self.num_entries = num_entries
        self.max_merged = max_merged
        self._entries: Dict[int, MshrEntry] = {}
        #: Bumped by every ``allocate`` (new or merged) and ``complete``,
        #: the only calls that change entries or their waiter counts.
        self.version = 0
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def occupancy(self) -> int:
        """Outstanding entries (telemetry-facing alias of ``len``)."""
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.num_entries

    def lookup(self, line_addr: int) -> Optional[MshrEntry]:
        return self._entries.get(line_addr)

    def can_accept(self, line_addr: int) -> bool:
        entry = self._entries.get(line_addr)
        if entry is not None:
            return len(entry.waiters) < self.max_merged
        return not self.full

    def allocate(self, line_addr: int, waiter: object) -> MshrEntry:
        """Record a miss; returns the entry.  ``entry.issued`` tells the
        caller whether a memory request is already in flight for the line.
        Raises when ``can_accept`` is False."""
        entry = self._entries.get(line_addr)
        if entry is not None:
            if len(entry.waiters) >= self.max_merged:
                raise RuntimeError("merge limit exceeded; check can_accept")
            entry.waiters.append(waiter)
            self.merges += 1
            self.version += 1
            return entry
        if self.full:
            self.full_stalls += 1
            raise RuntimeError("MSHR file full; check can_accept")
        entry = MshrEntry(line_addr, [waiter])
        self._entries[line_addr] = entry
        self.allocations += 1
        self.version += 1
        return entry

    def complete(self, line_addr: int) -> List[object]:
        """A fill returned: free the entry and return its waiters."""
        entry = self._entries.pop(line_addr, None)
        if entry is None:
            raise KeyError(f"no outstanding MSHR for line {line_addr:#x}")
        self.version += 1
        return entry.waiters

    def outstanding_lines(self) -> List[int]:
        return list(self._entries)

    def issued_lines(self) -> List[int]:
        """Lines with a memory request actually in flight (the invariant
        checker matches these one-to-one against in-flight packets)."""
        return [line for line, entry in self._entries.items()
                if entry.issued]
