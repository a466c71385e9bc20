"""Set-associative cache model.

Used for both the per-core L1 data caches (16 KB, write-back write-allocate,
Section II) and the shared L2 banks at the MC nodes (128 KB per MC,
Table II).  The cache is a timing-free state model: hit/miss/eviction
decisions are made here, while latencies and outstanding-miss tracking live
in the core and MC models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError("cache size must be a whole number of sets")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)

    def line_address(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_bytes) % self.num_sets


@dataclass
class AccessResult:
    hit: bool
    #: Line address of a dirty line evicted by this access (a write-back
    #: packet must be sent), or ``None``.
    writeback: Optional[int] = None


class _Line:
    __slots__ = ("tag", "dirty", "lru")

    def __init__(self, tag: int, lru: int) -> None:
        self.tag = tag
        self.dirty = False
        self.lru = lru


class SetAssociativeCache:
    """LRU set-associative cache with write-back write-allocate policy.

    ``access`` probes without allocating (misses are handled by MSHRs and
    ``fill`` happens when the memory reply returns); ``fill`` allocates.
    ``write_allocate_no_fetch`` models full-line stores at the L2 (the write
    packet carries the whole 64 B line so no fetch is needed).
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._sets: List[Dict[int, _Line]] = [
            {} for _ in range(config.num_sets)]
        self._clock = 0
        #: Bumped by every ``fill`` and ``invalidate``, the only calls that
        #: change which lines are present: equal versions mean equal
        #: ``contains`` answers.
        self.version = 0
        self.hits = 0
        self.misses = 0

    # -- probing -------------------------------------------------------------

    def access(self, addr: int, is_write: bool = False) -> AccessResult:
        """Probe the cache; on a hit, update LRU (and dirty for writes)."""
        line = self._lookup(addr - addr % self._line_bytes)
        if line is None:
            self.misses += 1
            return AccessResult(hit=False)
        self.hits += 1
        self._clock += 1
        line.lru = self._clock
        if is_write:
            line.dirty = True
        return AccessResult(hit=True)

    def contains(self, addr: int) -> bool:
        line_bytes = self._line_bytes
        line_addr = addr - addr % line_bytes
        return line_addr in self._sets[(line_addr // line_bytes)
                                       % self._num_sets]

    # -- allocation ----------------------------------------------------------

    def fill(self, addr: int, dirty: bool = False) -> AccessResult:
        """Install a line (memory reply returned); may evict a dirty line."""
        line_addr = self.config.line_address(addr)
        cache_set = self._sets[self.config.set_index(line_addr)]
        self._clock += 1
        self.version += 1
        existing = cache_set.get(line_addr)
        if existing is not None:
            existing.lru = self._clock
            existing.dirty = existing.dirty or dirty
            return AccessResult(hit=True)
        writeback = None
        if len(cache_set) >= self.config.associativity:
            victim_tag = min(cache_set, key=lambda t: cache_set[t].lru)
            victim = cache_set.pop(victim_tag)
            if victim.dirty:
                writeback = victim_tag
        line = _Line(line_addr, self._clock)
        line.dirty = dirty
        cache_set[line_addr] = line
        return AccessResult(hit=False, writeback=writeback)

    def write_allocate_no_fetch(self, addr: int) -> AccessResult:
        """Install a full line written by a 64 B write request."""
        return self.fill(addr, dirty=True)

    def invalidate(self, addr: int) -> bool:
        """Drop a line (software-managed coherence flushes); returns whether
        it was present."""
        line_addr = self.config.line_address(addr)
        cache_set = self._sets[self.config.set_index(line_addr)]
        self.version += 1
        return cache_set.pop(line_addr, None) is not None

    # -- stats ---------------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def _lookup(self, line_addr: int) -> Optional[_Line]:
        return self._sets[(line_addr // self._line_bytes)
                          % self._num_sets].get(line_addr)
