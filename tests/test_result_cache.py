"""Correctness tests for the on-disk result cache.

A cache key must cover every result-determining field — seed, warmup,
measure, design, benchmark profile and every ChipConfig field — so a hit is
only ever served for an exactly identical experiment specification.
"""

from dataclasses import replace

import pytest

from repro.core.builder import BASELINE, CP_DOR
from repro.experiments import compare_designs, load_latency_curves
from repro.noc.traffic import UniformManyToFew
from repro.parallel import (EXECUTION_COUNTER, ReportCollector, ResultCache,
                            SimTask, as_cache, default_cache_dir)
from repro.system.config import paper_config
from repro.workloads.profiles import profile

PROF = profile("AES")
FAST = dict(warmup=20, measure=40)


def executed_by(fn):
    """Run ``fn`` and return how many simulations it actually executed."""
    before = EXECUTION_COUNTER.executed
    result = fn()
    return EXECUTION_COUNTER.executed - before, result


class TestCacheHits:
    def test_second_run_executes_zero_simulations(self, tmp_path):
        run = lambda: compare_designs([BASELINE, CP_DOR], profiles=[PROF],
                                      cache=tmp_path, seed=11, **FAST)
        cold, first = executed_by(run)
        assert cold == 2
        warm, second = executed_by(run)
        assert warm == 0, "second identical run must be fully cached"
        assert first.to_json() == second.to_json()

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_sweep_second_run_executes_zero_simulations(self, tmp_path,
                                                        jobs):
        """A cached open-loop sweep, serial or on a process pool: the
        warm run executes nothing and returns the cold run's curve."""
        rates = [0.01, 0.02, 0.03]

        def run():
            collector = ReportCollector()
            (curve,) = load_latency_curves(
                [CP_DOR], rates, UniformManyToFew, cache=tmp_path,
                jobs=jobs, progress=collector, **FAST)
            return curve, sorted(collector.reports, key=lambda r: r.index)

        cold, cold_reports = run()
        assert [(r.label, r.cached) for r in cold_reports] == [
            (f"CP-DOR/uniform@{rate:g}", False) for rate in rates]
        warm, warm_reports = run()
        assert [r.cached for r in warm_reports] == [True] * len(rates)
        assert warm.to_json() == cold.to_json()

    def test_cached_equals_uncached(self, tmp_path):
        cached = compare_designs([BASELINE], profiles=[PROF],
                                 cache=tmp_path, seed=11, **FAST)
        recached = compare_designs([BASELINE], profiles=[PROF],
                                   cache=tmp_path, seed=11, **FAST)
        plain = compare_designs([BASELINE], profiles=[PROF], seed=11, **FAST)
        assert cached.to_json() == recached.to_json() == plain.to_json()


class TestCacheMisses:
    @pytest.fixture()
    def warm_cache(self, tmp_path):
        compare_designs([BASELINE], profiles=[PROF], cache=tmp_path,
                        seed=11, **FAST)
        return tmp_path

    def run_missing(self, cache, **overrides):
        kwargs = dict(designs=[BASELINE], profiles=[PROF], cache=cache,
                      seed=11, **FAST)
        kwargs.update(overrides)
        designs = kwargs.pop("designs")
        executed, _ = executed_by(lambda: compare_designs(designs, **kwargs))
        return executed

    def test_seed_misses(self, warm_cache):
        assert self.run_missing(warm_cache, seed=12) == 1

    def test_warmup_misses(self, warm_cache):
        assert self.run_missing(warm_cache, warmup=21) == 1

    def test_measure_misses(self, warm_cache):
        assert self.run_missing(warm_cache, measure=41) == 1

    def test_design_misses(self, warm_cache):
        assert self.run_missing(warm_cache, designs=[CP_DOR]) == 1

    def test_design_field_misses(self, warm_cache):
        tweaked = replace(BASELINE, name="TB-DOR", vc_buffer_depth=4)
        assert self.run_missing(warm_cache, designs=[tweaked]) == 1

    def test_chip_config_field_misses(self, warm_cache):
        config = paper_config()
        tweaked = replace(config,
                          clocks=replace(config.clocks, core_mhz=1300.0))
        assert self.run_missing(warm_cache, config=tweaked) == 1

    def test_explicit_paper_config_hits(self, warm_cache):
        """config=None and config=paper_config() are the same experiment."""
        assert self.run_missing(warm_cache, config=paper_config()) == 0


class TestResultCacheStore:
    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultCache(tmp_path)
        key = SimTask(kind="closed", label="x", seed=1, warmup=20,
                      measure=40, design=BASELINE,
                      profile=PROF).cache_key()
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_text("{not json")
        assert store.get(key) is None

    def test_put_get_clear(self, tmp_path):
        store = ResultCache(tmp_path)
        store.put("abc", {"result": {"x": 1}})
        assert store.get("abc") == {"result": {"x": 1}}
        assert len(store) == 1
        assert store.clear() == 1
        assert store.get("abc") is None
        assert len(store) == 0

    def test_as_cache_coercions(self, tmp_path, monkeypatch):
        assert as_cache(None) is None
        assert as_cache(False) is None
        assert as_cache(tmp_path).root == tmp_path
        store = ResultCache(tmp_path)
        assert as_cache(store) is store
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert as_cache(True).root == tmp_path / "env"
        assert default_cache_dir() == tmp_path / "env"


class TestPayloadSchemaVersioning:
    """The cache key embeds the result-payload schema, so entries written
    by older code (older payload layouts) are never served — they simply
    miss and the task re-executes under the new key."""

    @staticmethod
    def task():
        return SimTask(kind="closed", label="x", seed=1, warmup=20,
                       measure=40, design=BASELINE, profile=PROF)

    @staticmethod
    def spec(schema):
        from repro.system.config import paper_config
        return {"schema": schema, "kind": "closed", "seed": 1,
                "warmup": 20, "measure": 40, "design": BASELINE,
                "profile": PROF, "config": paper_config(),
                "pattern": None, "rate": None}

    def test_current_schema_is_pinned(self):
        # 3 = per-component activity counters for the power model; bump
        # this spec (and the constant in SimTask.cache_key) together.
        from repro.parallel import stable_key
        assert self.task().cache_key() == stable_key(self.spec(3))

    def test_stale_schema_entry_reexecutes(self, tmp_path):
        from repro.parallel import run_tasks, stable_key
        task = self.task()
        old_key = stable_key(self.spec(2))     # pre-power payload layout
        assert old_key != task.cache_key()
        store = ResultCache(tmp_path)
        store.put(old_key, {"result": {"stale": True}})
        executed, payloads = executed_by(
            lambda: run_tasks([task], cache=store))
        assert executed == 1, "stale-schema entry must not be served"
        assert payloads[0]["result"].get("stale") is None
        assert store.get(task.cache_key()) is not None
