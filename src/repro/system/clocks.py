"""Clock domains (Table II).

The chip has three domains: compute cores at 1296 MHz, interconnect and L2
at 602 MHz, DRAM at 1107 MHz.  The simulator steps the interconnect clock
as master; rate accumulators dole out the faster domains' cycles so that
long-run cycle ratios match the frequency ratios exactly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClockConfig:
    core_mhz: float = 1296.0
    icnt_mhz: float = 602.0
    dram_mhz: float = 1107.0

    @property
    def core_per_icnt(self) -> float:
        return self.core_mhz / self.icnt_mhz

    @property
    def dram_per_icnt(self) -> float:
        return self.dram_mhz / self.icnt_mhz


class RateAccumulator:
    """Doles out a clock domain's ticks, one master-clock advance at a time.

    After ``n`` advances ``total_ticks`` is ``floor(n * ratio)`` or one
    less.  The float accumulator can land just short of a whole tick where
    ``n * ratio`` is an integer; the tick then arrives on the next advance.
    With the paper's core clock (1296/602 = 648/301) that happens at every
    multiple of 301 advances; the DRAM clock (1107/602) is exact over at
    least 3M advances.  An exact integer accumulator would move every
    closed-loop result, so it belongs with a change that re-pins them.
    """

    def __init__(self, ratio: float) -> None:
        if ratio <= 0:
            raise ValueError("ratio must be positive")
        self.ratio = ratio
        self._acc = 0.0
        self.total_ticks = 0

    def advance(self) -> int:
        """One master-clock step; returns how many domain ticks elapse."""
        self._acc += self.ratio
        ticks = int(self._acc)
        self._acc -= ticks
        self.total_ticks += ticks
        return ticks
