"""Parallel experiment execution layer.

Every study in :mod:`repro.experiments` decomposes into independent
simulation *tasks* — one closed-loop chip run per (design, benchmark) point
or one open-loop sweep point per (design, pattern, rate).  This module is
the pluggable executor underneath them:

* :func:`run_tasks` — execute a list of :class:`SimTask`\\ s serially
  (``jobs=1``, the default) or fanned out over a
  :class:`concurrent.futures.ProcessPoolExecutor` (``jobs=N``), with
  per-task wall-clock reporting and an optional on-disk result cache.
* :func:`derive_seed` — deterministic, platform-independent per-task seed
  derivation (SHA-256 based, immune to ``PYTHONHASHSEED``), so every design
  point is statistically independent yet exactly reproducible.
  :func:`derive_seeds` derives many seeds that share a label prefix.
* :class:`ResultCache` — an on-disk store keyed by a stable hash of the
  full task specification ``(ChipConfig, NetworkDesign, profile, seed,
  warmup, measure)`` and the simulator's :func:`source_digest`; any field
  change, and any edit to the package's source, produces a different key.

The determinism contract: for the same task list, ``jobs=1`` and ``jobs=N``
produce field-for-field identical results.  Both paths execute the same
:func:`_run_task` worker and transport results as JSON (floats round-trip
exactly through ``repr``), so the only difference is *where* the work runs.
Tasks shipped to worker processes must be picklable — in practice that
means module-level pattern factories (classes or :func:`functools.partial`)
rather than lambdas.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Iterable, List, Optional, Sequence,
                    Tuple, Union)

# ---------------------------------------------------------------------------
# Stable hashing and seed derivation
# ---------------------------------------------------------------------------


def _encode(obj: Any) -> Any:
    """JSON fallback encoder for task specs (dataclasses, paths, tuples)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__name__,
                **dataclasses.asdict(obj)}
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"cannot stably encode {type(obj).__name__}: {obj!r}")


def canonical_json(obj: Any) -> str:
    """Canonical JSON used for hashing: sorted keys, no whitespace,
    ``repr``-exact floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_encode)


def stable_key(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``obj``.

    Unlike :func:`hash`, this is stable across processes, interpreter
    invocations and ``PYTHONHASHSEED`` values, so it is safe as an on-disk
    cache key and as a seed-derivation primitive.
    """
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


@functools.cache
def source_digest() -> str:
    """SHA-256 hex digest over the simulator's source: every ``*.py`` and
    ``*.c`` file under the ``repro`` package outside ``__pycache__``, by
    relative path and bytes, in path order.

    Computed once per process at first use (never at import).  It is
    part of every :meth:`SimTask.cache_key`, so a cached result is served
    only to the code that wrote it: any edit to the package, the two C
    kernels included, invalidates every entry.
    """
    root = Path(__file__).resolve().parent
    files = sorted((path.relative_to(root).as_posix(), path)
                   for suffix in ("py", "c")
                   for path in root.rglob(f"*.{suffix}")
                   if "__pycache__" not in path.relative_to(root).parts)
    digest = hashlib.sha256()
    for name, path in files:
        data = path.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def derive_seed(seed: int, *parts: Any) -> int:
    """Derive an independent per-task seed from a base seed and a label.

    ``derive_seed(11, "openloop", "TB-DOR", "uniform", 0.02)`` gives every
    (design, pattern, rate) point its own reproducible RNG stream: stable
    across runs and hosts, different for any change in ``seed`` or the
    labelling parts.
    """
    digest = hashlib.sha256(
        canonical_json([seed, *parts]).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seeds(seed: int, prefix: Sequence[Any],
                 suffixes: Iterable[Sequence[Any]]) -> List[int]:
    """``[derive_seed(seed, *prefix, *s) for s in suffixes]``, hashing the
    shared start of the canonical JSON once and copying the hash state
    for each suffix.  The encoding is :func:`canonical_json`'s, element by
    element: ``str`` for exact ints, :func:`canonical_json` for the rest."""
    def encode(parts) -> str:
        return "".join([
            "," + (str(v) if type(v) is int else canonical_json(v))
            for v in parts])

    head = hashlib.sha256(
        ("[" + encode([seed])[1:] + encode(prefix)).encode("utf-8"))
    copy, from_bytes = head.copy, int.from_bytes
    seeds = []
    for suffix in suffixes:
        digest = copy()
        digest.update((encode(suffix) + "]").encode("utf-8"))
        seeds.append(from_bytes(digest.digest()[:8], "big"))
    return seeds


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit ``jobs``, else the ``REPRO_JOBS``
    environment variable, else 1 (serial)."""
    if jobs is None:
        text = os.environ.get("REPRO_JOBS", "1") or "1"
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer >= 1, got {text!r}") from None
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-noc``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-noc"


#: A ``*.tmp.<pid>`` file this old can only be the orphan of a writer
#: killed between ``open`` and ``os.replace`` — live writes last
#: milliseconds.
STALE_TMP_SECONDS = 3600.0


class ResultCache:
    """Directory of ``<key>.json`` files holding task result payloads.

    Entry writes are atomic (temp file + :func:`os.replace`), so concurrent
    workers and concurrent harness invocations can share one cache
    directory.  A missing, unreadable or corrupt entry is a miss.

    A writer killed between opening its temp file and the ``os.replace``
    leaves an orphan ``<key>.tmp.<pid>`` behind; the first :meth:`put` of
    each cache object removes orphans older than :data:`STALE_TMP_SECONDS`
    and :meth:`clear` removes them all.  Orphans are never served:
    :meth:`get` only ever reads ``<key>.json``.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._swept = False

    def path_for(self, key: str) -> Path:
        """Cache file path for ``key``."""
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """Return the stored payload for ``key``, or ``None`` on a miss."""
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def put(self, key: str, payload: dict) -> None:
        """Atomically store ``payload`` under ``key``."""
        self.root.mkdir(parents=True, exist_ok=True)
        if not self._swept:
            self._swept = True
            self._sweep_tmp(STALE_TMP_SECONDS)
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)

    def clear(self) -> int:
        """Delete every entry and every orphaned temp file, whatever its
        age; returns how many entries were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
            self._sweep_tmp(0.0)
        return removed

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json"))) if self.root.is_dir() \
            else 0

    def _sweep_tmp(self, max_age: float) -> None:
        """Remove ``*.tmp.<pid>`` orphans older than ``max_age`` seconds."""
        now = time.time()
        for path in self.root.glob("*.tmp.*"):
            try:
                if now - path.stat().st_mtime >= max_age:
                    path.unlink()
            except OSError:
                continue        # a concurrent writer renamed/removed it


def as_cache(cache: Union[None, bool, str, Path, ResultCache]
             ) -> Optional[ResultCache]:
    """Coerce a user-facing ``cache`` argument: ``None``/``False`` disable
    caching, ``True`` uses the default directory, a path opens that
    directory, a :class:`ResultCache` passes through."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimTask:
    """One independent simulation: a closed-loop chip run or an open-loop
    sweep point.

    ``kind`` selects the worker path: ``"closed"`` (design × benchmark),
    ``"perfect"`` (perfect-NoC × benchmark) or ``"openloop"`` (design ×
    pattern × rate).  ``seed`` is the already-derived per-task seed.
    ``pattern_factory`` must be picklable for process-pool execution and is
    excluded from the cache key — ``pattern_name`` identifies the pattern
    there, so callers must keep it unique per pattern configuration.
    """

    kind: str
    label: str
    seed: int
    warmup: int
    measure: int
    design: Optional[Any] = None          # NetworkDesign
    profile: Optional[Any] = None         # BenchmarkProfile
    config: Optional[Any] = None          # ChipConfig (None = paper config)
    pattern_factory: Optional[Callable] = None
    pattern_name: Optional[str] = None
    rate: Optional[float] = None
    #: Optional :class:`repro.telemetry.TelemetrySpec`.  Telemetry is
    #: read-only and never changes results, so it is deliberately excluded
    #: from the cache key — but a cache hit is bypassed when requested
    #: artifacts are missing on disk (see :func:`run_tasks`).
    telemetry: Optional[Any] = None

    def cache_key(self) -> str:
        """Stable cache key over every result-determining field and the
        simulator's :func:`source_digest`."""
        from .system.config import paper_config
        config = self.config if self.config is not None else (
            paper_config() if self.kind != "openloop" else None)
        spec = {
            # Entries written by any other version of the simulator (its
            # results or its payload layout may differ) are never served.
            "source": source_digest(),
            "kind": self.kind,
            "seed": self.seed,
            "warmup": self.warmup,
            "measure": self.measure,
            "design": self.design,
            "profile": self.profile,
            "config": config,
            "pattern": self.pattern_name,
            "rate": self.rate,
        }
        return stable_key(spec)

    def telemetry_dir(self) -> Optional[Path]:
        """Artifact directory for this task's telemetry output, keyed like
        the result cache (``<label-slug>-<cache_key[:12]>``) so artifacts
        and cached results stay associated; ``None`` when the task does not
        write artifacts."""
        spec = self.telemetry
        if spec is None or spec.out_dir is None:
            return None
        slug = "".join(c if c.isalnum() or c in "._" else "-"
                       for c in self.label) or "task"
        return Path(spec.out_dir) / f"{slug}-{self.cache_key()[:12]}"


@dataclass(frozen=True)
class TaskReport:
    """Per-task progress record handed to the ``progress`` callback."""

    index: int
    total: int
    label: str
    seconds: float
    cached: bool


def _run_task(task: SimTask) -> str:
    """Execute one task and return its result payload as a JSON string.

    This is the single worker used by both the serial and the process-pool
    executors; returning JSON (rather than pickled objects) exercises the
    exact transport/caching representation on every path, which is what the
    golden-determinism tests pin down.
    """
    start = time.perf_counter()
    hub = None
    if task.telemetry is not None and task.telemetry.enabled:
        from .telemetry import TelemetryHub
        hub = TelemetryHub(task.telemetry)
    if task.kind == "openloop":
        if task.config is not None:
            # The point would run on the 6x6 mesh while its cache key
            # names the config's machine.
            raise ValueError("an open-loop task runs the 6x6 mesh and "
                             "takes no ChipConfig")
        from .core.builder import build, open_loop_variant
        from .noc.openloop import OpenLoopRunner
        system = build(open_loop_variant(task.design), seed=task.seed)
        runner = OpenLoopRunner(system, system.compute_nodes,
                                system.mc_nodes,
                                task.pattern_factory(system.mc_nodes),
                                task.rate, seed=task.seed, telemetry=hub)
        result = runner.run(warmup=task.warmup, measure=task.measure)
    elif task.kind == "perfect":
        from .system.accelerator import perfect_chip
        chip = perfect_chip(task.profile, config=task.config, seed=task.seed)
        if hub is not None:
            hub.attach_chip(chip)       # ideal network: chip columns only
        result = chip.run(warmup=task.warmup, measure=task.measure)
    elif task.kind == "closed":
        from .system.accelerator import build_chip
        chip = build_chip(task.profile, design=task.design,
                          config=task.config, seed=task.seed)
        if hub is not None:
            hub.attach_chip(chip)
        result = chip.run(warmup=task.warmup, measure=task.measure)
    else:
        raise ValueError(f"unknown task kind {task.kind!r}")
    payload = {
        "kind": task.kind,
        "label": task.label,
        "elapsed": time.perf_counter() - start,
        "result": result.to_json(),
    }
    if hub is not None:
        artifact_dir = task.telemetry_dir()
        if artifact_dir is not None:
            hub.write_artifacts(artifact_dir)
            payload["telemetry_dir"] = str(artifact_dir)
    return json.dumps(payload)


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class TaskError(RuntimeError):
    """A task's worker raised.  ``label`` and ``index`` name the failing
    task; the worker's exception is chained as ``__cause__``.  Every
    sibling task that completed before the failure propagated has already
    been cached (when a cache is active), so a retry only re-runs the
    failed and the never-started tasks.
    """

    def __init__(self, message: str, label: str, index: int) -> None:
        super().__init__(message)
        self.label = label
        self.index = index


def _task_error(task: SimTask, index: int, exc: BaseException) -> TaskError:
    return TaskError(f"task {task.label!r} (index {index}) failed: "
                     f"{type(exc).__name__}: {exc}", task.label, index)


def run_tasks(tasks: Sequence[SimTask], jobs: Optional[int] = None,
              cache: Union[None, bool, str, Path, ResultCache] = None,
              progress: Optional[Callable[[TaskReport], None]] = None
              ) -> List[dict]:
    """Execute ``tasks`` and return their result payloads, in task order.

    ``jobs=1`` runs everything inline; ``jobs=N`` fans uncached tasks out
    over a process pool and consumes completions as they land
    (out-of-order), so progress reporting and caching are never serialized
    behind the slowest early task.  Results are collected positionally, so
    the output order — and therefore everything downstream — is
    independent of worker scheduling.  ``progress`` (if given) is called
    once per task with a :class:`TaskReport` carrying the task's
    wall-clock time and whether it was served from the cache.

    Failure contract: a worker exception propagates as a
    :class:`TaskError` naming the failing task, but only after every
    already-completed sibling's payload has been cached — a failed sweep
    never discards finished work.  Tasks that have not started are
    cancelled; tasks still running are allowed to finish and are cached
    too.
    """
    jobs = resolve_jobs(jobs)
    store = as_cache(cache)
    total = len(tasks)
    payloads: List[Optional[dict]] = [None] * total
    keys: List[Optional[str]] = [None] * total
    pending: List[int] = []

    for i, task in enumerate(tasks):
        if store is not None:
            keys[i] = task.cache_key()
            hit = store.get(keys[i])
            # A cached result only substitutes for running the task if the
            # requested telemetry artifacts are complete on disk.  The
            # hub writes summary.json last, so its presence — not the
            # directory's, which a killed writer leaves half-filled —
            # is the completion sentinel.
            artifact_dir = task.telemetry_dir()
            artifacts_ok = artifact_dir is None or \
                (artifact_dir / "summary.json").is_file()
            if hit is not None and artifacts_ok:
                payloads[i] = hit
                if progress is not None:
                    progress(TaskReport(i, total, task.label,
                                        hit.get("elapsed", 0.0), True))
                continue
        pending.append(i)

    def _finish(i: int, raw: str) -> None:
        payload = json.loads(raw)
        payloads[i] = payload
        if store is not None:
            store.put(keys[i] or tasks[i].cache_key(), payload)
        if progress is not None:
            progress(TaskReport(i, total, tasks[i].label,
                                payload.get("elapsed", 0.0), False))

    if pending:
        if jobs == 1 or len(pending) == 1:
            for i in pending:
                try:
                    raw = _run_task(tasks[i])
                except Exception as exc:
                    raise _task_error(tasks[i], i, exc) from exc
                _finish(i, raw)
        else:
            executor = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
            try:
                index_of = {executor.submit(_run_task, tasks[i]): i
                            for i in pending}
                failure: Optional[Tuple[int, BaseException]] = None
                for future in as_completed(index_of):
                    i = index_of[future]
                    try:
                        raw = future.result()
                    except Exception as exc:
                        failure = (i, exc)
                        break
                    _finish(i, raw)
                if failure is not None:
                    # Fail fast without losing finished work: cancel
                    # whatever has not started, let running tasks drain,
                    # and cache every sibling that completed.
                    for future in index_of:
                        future.cancel()
                    for future, i in index_of.items():
                        if (i == failure[0] or future.cancelled()
                                or payloads[i] is not None):
                            continue
                        try:
                            raw = future.result()
                        except Exception:
                            continue    # the first failure wins
                        _finish(i, raw)
                    i, exc = failure
                    raise _task_error(tasks[i], i, exc) from exc
            finally:
                executor.shutdown()
    return payloads  # type: ignore[return-value]


class ReportCollector:
    """Progress callback that tallies the run: task count, cache hits and
    per-task wall-clock seconds.

    Usable anywhere a ``progress`` callable is accepted; ``chain`` forwards
    every report to a second callback (e.g. :func:`log_progress`) so
    collection and printing compose.  The exploration engine reads the
    tallies for its ``host`` stats, which ``repro explore`` prints as one
    tally line and the DSE throughput benchmark writes to
    ``BENCH_dse.json``.
    """

    def __init__(self, chain: Optional[Callable[[TaskReport], None]] = None
                 ) -> None:
        self.reports: List[TaskReport] = []
        self.chain = chain

    def __call__(self, report: TaskReport) -> None:
        self.reports.append(report)
        if self.chain is not None:
            self.chain(report)

    @property
    def total(self) -> int:
        """Tasks observed so far."""
        return len(self.reports)

    @property
    def cached(self) -> int:
        """Tasks served from the on-disk result cache."""
        return sum(1 for r in self.reports if r.cached)

    @property
    def executed(self) -> int:
        """Tasks actually simulated (cache misses)."""
        return sum(1 for r in self.reports if not r.cached)

    @property
    def seconds(self) -> float:
        """Summed wall-clock seconds of the executed (non-cached) tasks."""
        return sum(r.seconds for r in self.reports if not r.cached)


def log_progress(report: TaskReport) -> None:
    """Stderr progress printer usable as a ``progress`` callback: one
    ``[  3/10] <label> <seconds>s (run|cache)`` line per task."""
    origin = "cache" if report.cached else "run"
    print(f"[{report.index + 1:3d}/{report.total}] {report.label:40s} "
          f"{report.seconds:7.2f}s ({origin})", file=sys.stderr)
