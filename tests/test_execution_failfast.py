"""Regression tests for the execution-layer fail-fast/caching sweep.

Contracts pinned here:

* a worker failure propagates as :class:`TaskError` naming the failing
  task, but every completed sibling's payload is cached first — a
  poisoned batch never discards finished work, and a retry only re-runs
  what actually failed;
* orphaned ``*.tmp.<pid>`` files from killed writers are swept (aged on
  ``put``, unconditionally on ``clear``) and are never served;
* concurrent writers in separate processes share one cache directory;
* a truncated telemetry artifact directory (no ``summary.json``
  completion sentinel) forces re-execution instead of serving a cache
  hit against half-written artifacts;
* an open-loop task that carries a ``ChipConfig`` fails instead of
  running the 6x6 mesh under a cache key that names another machine.
"""

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.builder import BASELINE
from repro.experiments import closed_task, open_loop_task
from repro.noc.traffic import UniformManyToFew
from repro.parallel import (ReportCollector, ResultCache, SimTask,
                            TaskError, run_tasks)
from repro.system.config import scaled_config
from repro.telemetry import TelemetrySpec
from repro.workloads.profiles import profile

FAST = dict(base_seed=7, warmup=20, measure=40)


def good_tasks(n=3):
    return [open_loop_task(BASELINE, UniformManyToFew, "uniform",
                           0.01 + 0.01 * i, **FAST) for i in range(n)]


def poison_task():
    """A task whose worker raises (unknown kind) on any executor path."""
    return SimTask(kind="boom", label="poison", seed=1, warmup=1, measure=1)


def executed_by(tasks, **kwargs):
    """``run_tasks(tasks, **kwargs)`` and how many tasks it simulated."""
    collector = ReportCollector()
    result = run_tasks(tasks, progress=collector, **kwargs)
    return collector.executed, result


class TestFailFastRetainsResults:
    def test_serial_poisoned_batch_caches_good_results(self, tmp_path):
        store = ResultCache(tmp_path)
        good = good_tasks()
        with pytest.raises(TaskError) as err:
            run_tasks(good + [poison_task()], jobs=1, cache=store)
        assert err.value.label == "poison"
        assert "poison" in str(err.value)
        assert err.value.index == 3
        assert isinstance(err.value.__cause__, ValueError)
        for task in good:
            assert store.get(task.cache_key()) is not None
        assert store.get(poison_task().cache_key()) is None

    def test_parallel_poisoned_batch_caches_good_results(self, tmp_path):
        store = ResultCache(tmp_path)
        good = good_tasks()
        # Poison first: it fails immediately while the good tasks are
        # still running, so retention exercises the drain-and-harvest
        # path, not just results that landed before the failure.
        with pytest.raises(TaskError) as err:
            run_tasks([poison_task()] + good, jobs=4, cache=store)
        assert err.value.label == "poison"
        assert err.value.index == 0
        for task in good:
            assert store.get(task.cache_key()) is not None

    def test_retry_after_failure_only_runs_the_failed_task(self, tmp_path):
        store = ResultCache(tmp_path)
        good = good_tasks()
        with pytest.raises(TaskError):
            run_tasks(good + [poison_task()], jobs=1, cache=store)
        executed, payloads = executed_by(good, jobs=1, cache=store)
        assert executed == 0, "good results were lost by the failed batch"
        assert [p["label"] for p in payloads] == [t.label for t in good]

    def test_error_label_without_cache(self):
        with pytest.raises(TaskError, match="poison"):
            run_tasks([poison_task()], jobs=1)

    def test_open_loop_task_with_a_config_fails(self, tmp_path):
        store = ResultCache(tmp_path)
        task = dataclasses.replace(good_tasks(1)[0],
                                   config=scaled_config(56, 8, 8, 8))
        with pytest.raises(TaskError, match="takes no ChipConfig") as err:
            run_tasks([task], jobs=1, cache=store)
        assert isinstance(err.value.__cause__, ValueError)
        assert store.get(task.cache_key()) is None


class TestOrphanTmpFiles:
    def plant(self, root, name, age_seconds):
        root.mkdir(parents=True, exist_ok=True)
        tmp = root / name
        tmp.write_text('{"result": "half-written"}')
        old = time.time() - age_seconds
        os.utime(tmp, (old, old))
        return tmp

    def test_stale_tmp_removed_on_put_and_never_served(self, tmp_path):
        store = ResultCache(tmp_path)
        stale = self.plant(tmp_path, "deadbeef.tmp.99999", 7200)
        assert store.get("deadbeef") is None, "orphan tmp must not serve"
        store.put("abc", {"result": 1})
        assert not stale.exists(), "stale orphan survived put()"
        assert store.get("abc") == {"result": 1}

    def test_fresh_tmp_survives_put_but_not_clear(self, tmp_path):
        store = ResultCache(tmp_path)
        fresh = self.plant(tmp_path, "cafef00d.tmp.99999", 0)
        store.put("abc", {"result": 1})
        assert fresh.exists(), "a live writer's tmp file was swept"
        store.clear()
        assert not fresh.exists()
        assert len(store) == 0


class TestIndexAndEviction:
    """Concurrent writers over one cache directory."""

    def test_concurrent_writers_share_one_directory(self, tmp_path):
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_hammer_cache, str(tmp_path), worker)
                       for worker in range(4)]
            hits = [future.result() for future in futures]
        store = ResultCache(tmp_path)
        # 4 workers x 10 distinct keys plus 5 shared keys.
        assert len(store) == 45
        for worker in range(4):
            for i in range(10):
                assert store.get(f"w{worker}-{i}") == \
                    {"result": [worker, i]}
        for i in range(5):
            assert store.get(f"shared-{i}") is not None
        # Every lookup followed that worker's own put of the same key, so
        # under contention it is still a hit, no matter how the four
        # interleaved (entries are only ever replaced, never deleted).
        assert hits == [10] * 4


def _hammer_cache(root, worker):
    """Worker for the concurrent-writer test (module-level: picklable).
    Returns how many of its own lookups returned a payload."""
    store = ResultCache(root)
    hits = 0
    for i in range(10):
        store.put(f"w{worker}-{i}", {"result": [worker, i]})
        store.put(f"shared-{i % 5}", {"result": worker})
        hits += store.get(f"shared-{i % 5}") is not None
    return hits


class TestArtifactCompletionSentinel:
    def _task(self, tmp_path):
        spec = TelemetrySpec(trace=True, out_dir=str(tmp_path / "art"))
        return closed_task(BASELINE, profile("AES"), telemetry=spec, **FAST)

    def test_truncated_artifact_dir_forces_reexecution(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = self._task(tmp_path)
        cold, _ = executed_by([task], cache=cache)
        assert cold == 1
        art = task.telemetry_dir()
        assert (art / "summary.json").is_file()

        warm, _ = executed_by([task], cache=cache)
        assert warm == 0, "complete artifacts must serve the hit"

        # A writer killed mid-flight leaves the directory but not the
        # summary.json completion sentinel; the hit must be bypassed.
        (art / "summary.json").unlink()
        assert art.is_dir()
        rerun, _ = executed_by([task], cache=cache)
        assert rerun == 1, "truncated artifact dir served a cache hit"
        assert (art / "summary.json").is_file()
