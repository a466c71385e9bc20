"""Tests for the GDDR3 channel model: timing, FR-FCFS, efficiency."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.dram import NEVER, DramRequest, DramTiming, GddrChannel


def drain(channel, max_cycles=10_000):
    """Step until idle; returns completion order as payload list."""
    done = []
    cycle = channel.now
    while channel.busy:
        cycle += 1
        if cycle > max_cycles:
            raise AssertionError("DRAM did not drain")
        done.extend(channel.step(cycle))
    return done


class TestTiming:
    def test_paper_parameters(self):
        t = DramTiming()
        assert (t.tCL, t.tRP, t.tRC, t.tRAS, t.tRCD, t.tRRD) == \
            (9, 13, 34, 21, 12, 8)
        assert t.queue_capacity == 32

    def test_burst_cycles(self):
        t = DramTiming()
        assert t.burst_cycles(64) == 4
        assert t.burst_cycles(8) == 1

    def test_row_hit_latency(self):
        """Second access to an open row completes after ~tCL + burst."""
        ch = GddrChannel()
        ch.enqueue(DramRequest(0, False), 0)
        done = drain(ch)
        first_done = done[0].complete_time
        ch.enqueue(DramRequest(64, False), first_done + 1)
        done = drain(ch)
        latency = done[0].complete_time - done[0].issue_time
        assert latency == ch.timing.tCL + 4
        assert done[0].row_hit

    def test_row_miss_latency_includes_activate(self):
        ch = GddrChannel()
        ch.enqueue(DramRequest(0, False), 0)
        drain(ch)
        # Same bank, different row.
        other_row = ch.timing.row_bytes * ch.timing.num_banks
        ch.enqueue(DramRequest(other_row, False), 100)
        done = drain(ch)
        t = ch.timing
        latency = done[0].complete_time - done[0].issue_time
        assert latency >= t.tRP + t.tRCD + t.tCL + 4
        assert not done[0].row_hit

    def test_cold_bank_skips_precharge(self):
        ch = GddrChannel()
        ch.enqueue(DramRequest(0, False), 0)
        done = drain(ch)
        t = ch.timing
        assert done[0].complete_time - done[0].issue_time == \
            t.tRCD + t.tCL + 4


class TestFrFcfs:
    def test_row_hit_reordered_first(self):
        """A younger row-hit request bypasses an older row-miss one."""
        ch = GddrChannel()
        ch.enqueue(DramRequest(0, False, payload="open"), 0)
        drain(ch)                                   # row 0 of bank 0 open
        miss_addr = ch.timing.row_bytes * ch.timing.num_banks
        ch.enqueue(DramRequest(miss_addr, False, payload="miss"), 50)
        ch.enqueue(DramRequest(64, False, payload="hit"), 51)
        done = drain(ch)
        assert [r.payload for r in done] == ["hit", "miss"]

    def test_fcfs_among_equals(self):
        ch = GddrChannel()
        ch.enqueue(DramRequest(0, False, payload="a"), 0)
        ch.enqueue(DramRequest(64, False, payload="b"), 0)
        done = drain(ch)
        assert [r.payload for r in done] == ["a", "b"]

    def test_banks_overlap(self):
        """Accesses to distinct banks overlap; same-bank serialise."""
        t = DramTiming()
        same = GddrChannel(t)
        row_span = t.row_bytes * t.num_banks
        for i in range(4):
            same.enqueue(DramRequest(i * row_span, False), 0)
        same_done = drain(same)[-1].complete_time

        spread = GddrChannel(t)
        for i in range(4):
            spread.enqueue(DramRequest(i * t.row_bytes, False), 0)
        spread_done = drain(spread)[-1].complete_time
        assert spread_done < same_done

    def test_trrd_spaces_activates(self):
        ch = GddrChannel()
        for i in range(3):
            ch.enqueue(DramRequest(i * ch.timing.row_bytes, False), 0)
        done = drain(ch)
        # Activations to different banks are at least tRRD apart; with a
        # shared data bus the completions are at least burst cycles apart.
        times = sorted(r.complete_time for r in done)
        for a, b in zip(times, times[1:]):
            assert b - a >= 4


class TestQueue:
    def test_capacity(self):
        ch = GddrChannel(DramTiming(queue_capacity=2))
        ch.enqueue(DramRequest(0, False), 0)
        ch.enqueue(DramRequest(64, False), 0)
        assert not ch.can_accept()
        with pytest.raises(RuntimeError):
            ch.enqueue(DramRequest(128, False), 0)

    def test_occupancy_decreases_on_issue(self):
        ch = GddrChannel()
        ch.enqueue(DramRequest(0, False), 0)
        assert ch.queue_occupancy == 1
        drain(ch)
        assert ch.queue_occupancy == 0


class TestWritesAndStats:
    def test_write_completes_without_reply_semantics(self):
        ch = GddrChannel()
        ch.enqueue(DramRequest(0, True), 0)
        done = drain(ch)
        assert done[0].is_write

    def test_efficiency_high_for_streaming(self):
        ch = GddrChannel()
        cycle = 0
        served = 0
        line = 0
        while served < 200:
            cycle += 1
            if ch.can_accept():
                ch.enqueue(DramRequest(line, False), cycle)
                line += 64
            before = ch.requests_serviced
            ch.step(cycle)
            served = ch.requests_serviced
        assert ch.efficiency() > 0.7
        assert ch.row_hit_rate() > 0.8

    def test_efficiency_lower_for_random_rows(self):
        import random
        rng = random.Random(0)
        ch = GddrChannel()
        cycle = 0
        while ch.requests_serviced < 200:
            cycle += 1
            if ch.can_accept():
                addr = rng.randrange(1 << 24)
                ch.enqueue(DramRequest(addr - addr % 64, False), cycle)
            ch.step(cycle)
        assert ch.row_hit_rate() < 0.3

    def test_address_mapping(self):
        ch = GddrChannel()
        bank0, row0 = ch.map_address(0)
        bank1, row1 = ch.map_address(ch.timing.row_bytes)
        assert bank0 != bank1 or row0 != row1
        bank_again, row_again = ch.map_address(63)
        assert (bank_again, row_again) == (bank0, row0)


class TestNextEvent:
    """``next_event``, which gates ``GddrChannel.step`` in the chip loop."""

    @staticmethod
    def recomputed(ch):
        return min([r.complete_time for r in ch._in_flight]
                   + [ch._banks[r.bank].busy_until for r in ch._queue],
                   default=NEVER)

    @staticmethod
    def state(ch):
        """Everything ``step`` may change besides the clock and the two
        busy counters."""
        return (list(ch._queue), list(ch._in_flight), ch.requests_serviced,
                ch.row_hits, ch.row_misses, ch._bus_free_at,
                [(b.open_row, b.busy_until, b.last_activate)
                 for b in ch._banks])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 31),
                              st.booleans()), max_size=80))
    def test_exact_minimum_and_idle_before_it(self, arrivals):
        """Random arrivals (cycles since the last one, row id, write) over
        4 rows per bank, then a drain: after every enqueue and step,
        ``next_event`` is the recomputed minimum, and a step before it
        changes nothing but ``now``, ``pending_cycles`` and
        ``data_busy_cycles``."""
        ch = GddrChannel()
        now = 0

        def step():
            nonlocal now
            now += 1
            before = self.state(ch) if ch.next_event > now else None
            ch.step(now)
            if before is not None:
                assert self.state(ch) == before, now
            assert ch.next_event == self.recomputed(ch), now

        for gap, row_id, is_write in arrivals:
            for _ in range(gap):
                step()
            if ch.can_accept():
                ch.enqueue(DramRequest(row_id * ch.timing.row_bytes,
                                       is_write), now)
                assert ch.next_event == self.recomputed(ch)
        while ch.busy:
            step()
        assert ch.next_event == NEVER
