"""Host-side profiling: wall-clock per simulation component.

The Python hot path is the ROADMAP's main scaling risk; this profiler
answers "where do the seconds go" without ``cProfile``'s overhead.  With
telemetry attached, the step loops (``Accelerator.step``,
``OpenLoopRunner._cycle``) bracket each phase with ``perf_counter``
reads and feed the deltas here; the summary reports per-section seconds
plus simulated cycles per wall-clock second.

Host timing never influences simulation state, so it cannot perturb
results — it only runs when telemetry is enabled at all.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator


class HostProfiler:
    """Accumulates wall-clock seconds per named simulation section."""

    __slots__ = ("sections", "cycles", "_started")

    def __init__(self) -> None:
        self.sections: Dict[str, float] = {}
        self.cycles = 0
        self._started = time.perf_counter()

    @staticmethod
    def clock() -> float:
        return time.perf_counter()

    def add_since(self, name: str, start: float) -> float:
        """Charge the time since ``start`` to ``name``; returns the new
        timestamp so phases chain without extra clock reads."""
        now = time.perf_counter()
        self.sections[name] = self.sections.get(name, 0.0) + (now - start)
        return now

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Charge the wall-clock time of a ``with`` block to ``name`` —
        the coarse-grained phase counterpart of :meth:`add_since`, used by
        the exploration engine to time its fidelity-ladder stages."""
        start = self.clock()
        try:
            yield
        finally:
            self.add_since(name, start)

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    def cycles_per_second(self) -> float:
        elapsed = self.elapsed
        return self.cycles / elapsed if elapsed > 0 else 0.0

    def summary(self) -> dict:
        """JSON-compatible profile (sections sorted by cost)."""
        total = sum(self.sections.values())
        return {
            "wall_seconds": self.elapsed,
            "simulated_cycles": self.cycles,
            "cycles_per_second": self.cycles_per_second(),
            "sections": dict(sorted(self.sections.items(),
                                    key=lambda kv: -kv[1])),
            "instrumented_seconds": total,
        }

    def format(self) -> str:
        """Human-readable profile block for CLI output."""
        data = self.summary()
        lines = [f"host profile: {data['simulated_cycles']} cycles in "
                 f"{data['wall_seconds']:.2f}s "
                 f"({data['cycles_per_second']:.0f} cycles/s)"]
        total = data["instrumented_seconds"]
        for name, seconds in data["sections"].items():
            share = seconds / total if total else 0.0
            lines.append(f"  {name:16s} {seconds:8.3f}s {share:6.1%}")
        return "\n".join(lines)
