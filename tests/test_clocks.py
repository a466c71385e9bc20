"""Tests for clock domains and rate accumulators."""

import pytest

from repro.system.clocks import ClockConfig, RateAccumulator


class TestClockConfig:
    def test_paper_frequencies(self):
        c = ClockConfig()
        assert c.core_mhz == 1296.0
        assert c.icnt_mhz == 602.0
        assert c.dram_mhz == 1107.0

    def test_ratios(self):
        c = ClockConfig()
        assert c.core_per_icnt == pytest.approx(1296 / 602)
        assert c.dram_per_icnt == pytest.approx(1107 / 602)


class TestRateAccumulator:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RateAccumulator(0)

    def test_unity_ratio(self):
        acc = RateAccumulator(1.0)
        assert [acc.advance() for _ in range(5)] == [1] * 5

    def test_double_ratio(self):
        acc = RateAccumulator(2.0)
        assert [acc.advance() for _ in range(3)] == [2, 2, 2]

    def test_fractional_ratio_long_run_exact(self):
        ratio = 1296 / 602
        acc = RateAccumulator(ratio)
        n = 60_200
        total = sum(acc.advance() for _ in range(n))
        assert total == int(n * ratio) or abs(total - n * ratio) < 2
        assert acc.total_ticks == total

    def test_ticks_never_negative_or_bursty(self):
        acc = RateAccumulator(1.84)
        for _ in range(1000):
            t = acc.advance()
            assert t in (1, 2)

    @pytest.mark.parametrize("domain_mhz", ("core_mhz", "dram_mhz"))
    def test_total_within_one_tick_of_exact(self, domain_mhz):
        """``total_ticks`` is ``floor(n * r)`` or one less, for both paper
        ratios, by exact integer arithmetic (the float accumulator lags a
        tick at some ``n``; an exact one would pass too)."""
        c = ClockConfig()
        num, den = int(getattr(c, domain_mhz)), int(c.icnt_mhz)
        acc = RateAccumulator(num / den)
        for n in range(1, 100_001):
            acc.advance()
            exact = n * num // den
            assert exact - 1 <= acc.total_ticks <= exact, n

    def test_slow_domain(self):
        acc = RateAccumulator(0.5)
        assert [acc.advance() for _ in range(4)] == [0, 1, 0, 1]
