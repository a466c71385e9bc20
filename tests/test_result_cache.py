"""Correctness tests for the on-disk result cache.

A cache key must cover every result-determining field — seed, warmup,
measure, design, benchmark profile, every ChipConfig field and the
simulator's source — so a hit is only ever served for an exactly identical
experiment specification run by the code that wrote it.
"""

import os
import shutil
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.builder import BASELINE, CP_DOR
from repro.experiments import compare_designs, load_latency_curves
from repro.noc.traffic import UniformManyToFew
from repro import parallel
from repro.parallel import (ReportCollector, ResultCache, SimTask, as_cache,
                            default_cache_dir, run_tasks, source_digest,
                            stable_key)
from repro.system.config import paper_config
from repro.workloads.profiles import profile

PROF = profile("AES")
FAST = dict(warmup=20, measure=40)


def executed_by(fn):
    """Call ``fn(progress)`` and return how many simulations it actually
    executed, with its result."""
    collector = ReportCollector()
    result = fn(collector)
    return collector.executed, result


class TestCacheHits:
    def test_second_run_executes_zero_simulations(self, tmp_path):
        run = lambda progress: compare_designs(
            [BASELINE, CP_DOR], profiles=[PROF], cache=tmp_path, seed=11,
            progress=progress, **FAST)
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
        executed, _ = executed_by(
            lambda progress: compare_designs(designs, progress=progress,
                                             **kwargs))
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
    """The cache key embeds the simulator's source digest, so entries
    written by any other version of the code (older results or payload
    layouts) are never served — they simply miss and the task re-executes
    under the new key."""

    @staticmethod
    def task():
        return SimTask(kind="closed", label="x", seed=1, warmup=20,
                       measure=40, design=BASELINE, profile=PROF)

    @staticmethod
    def spec(**version):
        return {**version, "kind": "closed", "seed": 1,
                "warmup": 20, "measure": 40, "design": BASELINE,
                "profile": PROF, "config": paper_config(),
                "pattern": None, "rate": None}

    def test_current_schema_is_pinned(self):
        assert self.task().cache_key() == stable_key(
            self.spec(source=source_digest()))

    def test_stale_schema_entry_reexecutes(self, tmp_path):
        task = self.task()
        old_key = stable_key(self.spec(schema=2))  # pre-power payload layout
        assert old_key != task.cache_key()
        store = ResultCache(tmp_path)
        store.put(old_key, {"result": {"stale": True}})
        executed, payloads = executed_by(
            lambda progress: run_tasks([task], cache=store,
                                       progress=progress))
        assert executed == 1, "stale-schema entry must not be served"
        assert payloads[0]["result"].get("stale") is None
        assert store.get(task.cache_key()) is not None

    def test_entry_keyed_without_source_reexecutes(self, tmp_path):
        # The key earlier code wrote for this task: a hand-bumped payload
        # schema and no source field, so it outlived any simulator change.
        task = self.task()
        store = ResultCache(tmp_path)
        store.put(stable_key(self.spec(schema=3)),
                  {"result": {"stale": True}})
        executed, payloads = executed_by(
            lambda progress: run_tasks([task], cache=store,
                                       progress=progress))
        assert executed == 1, "an entry keyed without the source served"
        assert payloads[0]["result"].get("stale") is None


class TestSourceDigest:
    def test_source_change_invalidates_every_entry(self, tmp_path,
                                                   monkeypatch):
        def run(progress):
            return compare_designs([BASELINE, CP_DOR], profiles=[PROF],
                                   cache=tmp_path, seed=11,
                                   progress=progress, **FAST)

        cold, first = executed_by(run)
        assert cold == 2
        assert executed_by(run)[0] == 0
        monkeypatch.setattr(parallel, "source_digest",
                            lambda: "0" * 64)
        edited, second = executed_by(run)
        assert edited == 2, "an entry outlived a source change"
        assert second.to_json() == first.to_json()

    def test_digest_covers_python_and_c_sources(self, tmp_path):
        """The digest reads every ``.py`` and ``.c`` file of the package
        by its path inside the package, so a copy elsewhere digests the
        same, files under ``__pycache__`` do not count, and an edit to
        either kind of source changes it."""
        package = Path(parallel.__file__).resolve().parent
        shutil.copytree(package, tmp_path / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        digests = _python(tmp_path, """
            from pathlib import Path
            import repro.parallel as p
            root = Path(p.__file__).parent
            print(p.source_digest())
            for name, text in (("__pycache__/stray.py", "x = 1"),
                               ("gpu/_core_kernel.c", "/* edit */"),
                               ("noc/openloop.py", "# edit")):
                (root / name).parent.mkdir(exist_ok=True)
                with open(root / name, "a") as fh:
                    fh.write(text + "\\n")
                print(p.source_digest.__wrapped__())
        """)
        copy, stray, c_edit, py_edit = digests
        assert copy == stray == source_digest()
        assert len({copy, c_edit, py_edit}) == 3
        assert source_digest() is source_digest()      # memoized

    def test_import_computes_no_digest(self):
        src = Path(parallel.__file__).resolve().parents[1]
        assert _python(src, """
            import repro
            import repro.parallel as p
            print(p.source_digest.cache_info().currsize)
        """) == ["0"]


def _python(pythonpath, code):
    """Run ``code`` in a fresh interpreter with ``pythonpath`` importable;
    returns its stdout lines."""
    env = dict(os.environ, PYTHONPATH=str(pythonpath))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()
