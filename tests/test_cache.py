"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import AccessResult, CacheConfig, SetAssociativeCache


def small_cache(size=1024, line=64, assoc=2):
    return SetAssociativeCache(CacheConfig(size, line, assoc))


class TestConfig:
    def test_paper_l1(self):
        cfg = CacheConfig(16 * 1024, 64, 8)
        assert cfg.num_sets == 32

    def test_paper_l2(self):
        cfg = CacheConfig(128 * 1024, 64, 8)
        assert cfg.num_sets == 256

    def test_rejects_partial_sets(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 64, 8)

    def test_line_address(self):
        cfg = CacheConfig(1024, 64, 2)
        assert cfg.line_address(130) == 128
        assert cfg.line_address(64) == 64

    def test_set_index_wraps(self):
        cfg = CacheConfig(1024, 64, 2)   # 8 sets
        assert cfg.set_index(0) == cfg.set_index(8 * 64)


class TestBasicOperation:
    def test_cold_miss(self):
        c = small_cache()
        assert not c.access(0).hit
        assert c.misses == 1

    def test_fill_then_hit(self):
        c = small_cache()
        c.fill(0)
        assert c.access(0).hit
        assert c.access(63).hit        # same line
        assert not c.access(64).hit    # next line

    def test_probe_does_not_allocate(self):
        c = small_cache()
        c.access(0)
        assert not c.contains(0)

    def test_lru_eviction(self):
        c = small_cache(size=256, line=64, assoc=2)   # 2 sets
        a, b, d = 0, 2 * 64, 4 * 64    # all map to set 0
        c.fill(a)
        c.fill(b)
        c.access(a)                     # make b the LRU
        result = c.fill(d)
        assert not c.contains(b)
        assert c.contains(a) and c.contains(d)
        assert result.writeback is None   # b was clean

    def test_dirty_eviction_reports_writeback(self):
        c = small_cache(size=256, line=64, assoc=2)
        a, b, d = 0, 2 * 64, 4 * 64
        c.fill(a, dirty=True)
        c.fill(b)
        c.access(b)
        result = c.fill(d)              # evicts dirty a
        assert result.writeback == a

    def test_write_hit_marks_dirty(self):
        c = small_cache(size=256, line=64, assoc=2)
        c.fill(0)
        c.access(0, is_write=True)
        c.fill(2 * 64)
        c.fill(4 * 64)                  # evict line 0
        # one of the fills must have reported line 0 as a writeback
        assert not c.contains(0)

    def test_write_allocate_no_fetch(self):
        c = small_cache()
        result = c.write_allocate_no_fetch(128)
        assert not result.hit
        assert c.contains(128)

    def test_refill_existing_line_keeps_dirty(self):
        c = small_cache()
        c.fill(0, dirty=True)
        c.fill(0, dirty=False)
        c.fill(2 * 64)
        # force eviction of line 0 from its set
        cfg = c.config
        sets = cfg.num_sets
        evictions = []
        for i in range(1, 4):
            r = c.fill(i * sets * 64)
            if r.writeback is not None:
                evictions.append(r.writeback)
        assert 0 in evictions           # still dirty

    def test_invalidate(self):
        c = small_cache()
        c.fill(0)
        assert c.invalidate(0)
        assert not c.contains(0)
        assert not c.invalidate(0)

    def test_hit_rate(self):
        c = small_cache()
        c.fill(0)
        c.access(0)
        c.access(64)
        assert c.hit_rate() == 0.5


class TestCapacity:
    def test_occupancy_bounded(self):
        c = small_cache(size=512, line=64, assoc=2)   # 8 lines
        for i in range(100):
            c.fill(i * 64)
        assert c.occupancy() == 8

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.integers(0, 63), st.booleans()),
                    max_size=200))
    def test_against_reference_model(self, ops):
        """LRU cache vs a brute-force reference simulation."""
        cfg = CacheConfig(512, 64, 2)
        cache = SetAssociativeCache(cfg)
        # reference: per-set ordered dict of line -> dirty
        ref = [dict() for _ in range(cfg.num_sets)]
        for line_no, dirty in ops:
            line = line_no * 64
            s = cfg.set_index(line)
            result = cache.fill(line, dirty=dirty)
            if line in ref[s]:
                was = ref[s].pop(line)
                ref[s][line] = was or dirty
                assert result.hit
            else:
                assert not result.hit
                expected_wb = None
                if len(ref[s]) >= 2:
                    victim, victim_dirty = next(iter(ref[s].items()))
                    ref[s].pop(victim)
                    expected_wb = victim if victim_dirty else None
                ref[s][line] = dirty
                assert result.writeback == expected_wb
        for s in range(cfg.num_sets):
            for line in ref[s]:
                assert cache.contains(line)
