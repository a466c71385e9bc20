"""DRAM tests with mixed read/write streams and long-run schedules."""

import random

import pytest

from repro.mem.dram import DramRequest, DramTiming, GddrChannel


def run_stream(requests, timing=None):
    ch = GddrChannel(timing or DramTiming())
    done = []
    pending = list(requests)
    cycle = 0
    while pending or ch.busy:
        cycle += 1
        if cycle > 100_000:
            raise AssertionError("stream did not drain")
        if pending and ch.can_accept():
            ch.enqueue(pending.pop(0), cycle)
        done.extend(ch.step(cycle))
    return ch, done


class TestMixedStreams:
    def test_reads_and_writes_all_complete(self):
        rng = random.Random(0)
        reqs = [DramRequest(rng.randrange(1 << 22) & ~63,
                            is_write=bool(rng.randrange(2)))
                for _ in range(150)]
        ch, done = run_stream(reqs)
        assert len(done) == 150
        assert ch.requests_serviced == 150

    def test_interleaved_rows_still_find_hits(self):
        """Two interleaved sequential streams (different banks) keep both
        row buffers warm under FR-FCFS."""
        t = DramTiming()
        stream_a = [DramRequest(i * 64, False) for i in range(40)]
        stream_b = [DramRequest(t.row_bytes + i * 64, False)
                    for i in range(40)]
        mixed = [r for pair in zip(stream_a, stream_b) for r in pair]
        ch, _ = run_stream(mixed)
        assert ch.row_hit_rate() > 0.7

    def test_completion_times_monotone_per_bank(self):
        reqs = [DramRequest(i * 64, False) for i in range(30)]
        _, done = run_stream(reqs)
        per_bank = {}
        for r in done:
            per_bank.setdefault(r.bank, []).append(r.complete_time)
        for times in per_bank.values():
            assert times == sorted(times)

    def test_data_bus_never_double_booked(self):
        rng = random.Random(3)
        reqs = [DramRequest(rng.randrange(1 << 20) & ~63, False)
                for _ in range(80)]
        _, done = run_stream(reqs)
        windows = sorted((r.complete_time - 4, r.complete_time)
                         for r in done)
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert s2 >= e1, "data transfers overlap on the bus"

    def test_throughput_bounded_by_pins(self):
        """Even a perfect row-hit stream cannot beat 16 B/mclk."""
        reqs = [DramRequest(i * 64, False) for i in range(200)]
        ch, done = run_stream(reqs)
        span = max(r.complete_time for r in done) - \
            min(r.issue_time for r in done)
        bytes_moved = 200 * 64
        assert bytes_moved / span <= ch.timing.bytes_per_cycle + 1e-9


class TestTimingEdgeCases:
    def test_single_bank_configuration(self):
        t = DramTiming(num_banks=1)
        reqs = [DramRequest(i * t.row_bytes, False) for i in range(5)]
        ch, done = run_stream(reqs, t)
        assert len(done) == 5
        assert ch.row_hit_rate() == 0.0
        # Row cycles serialize on the single bank: ~tRC apart.
        times = sorted(r.complete_time for r in done)
        for a, b in zip(times, times[1:]):
            assert b - a >= t.tRRD

    def test_non_default_burst(self):
        t = DramTiming(bytes_per_cycle=8)
        assert t.burst_cycles(64) == 8
        ch, done = run_stream([DramRequest(0, False)], t)
        assert done[0].complete_time - done[0].issue_time == \
            t.tRCD + t.tCL + 8
