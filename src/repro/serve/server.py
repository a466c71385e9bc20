"""The asyncio job server.

One :class:`JobServer` owns a listening socket (TCP on localhost or a
unix domain socket), a FIFO queue of validated submissions, a pool of
worker coroutines that execute jobs via
:func:`repro.serve.executor.execute_job` on executor threads (the
simulations themselves fan out over processes through
:func:`repro.parallel.run_tasks` when ``job_jobs > 1``), and the shared
:class:`repro.parallel.ResultCache` that turns repeat design-point
queries into millisecond cache hits.

Contracts:

* **FIFO order** — jobs start in the order the server accepted them,
  whichever connection submitted them.  The queue is unbounded: this is
  a single-host research harness, and ``stats`` reports its depth.
* **Correlated logs** — every lifecycle transition emits a structured
  log record (:func:`repro.obs.log.emit`) carrying the ``job_id``.
* **Streaming progress** — every :class:`repro.parallel.TaskReport` a
  job's executor emits is forwarded as a ``progress`` event to
  subscribed clients, bridged from the executor thread with
  ``loop.call_soon_threadsafe``.
* **Fail-fast without loss** — a failing task surfaces as a ``failed``
  event naming the task label (:class:`repro.parallel.TaskError`), and
  every completed sibling is already in the result cache, so a
  resubmission only re-runs what actually failed.
* **Bit-identity** — results are produced by the same library calls a
  direct harness invocation uses; the server adds transport, never
  arithmetic.
* **Bounded memory** — the server keeps the records of at most
  :data:`MAX_FINISHED_JOBS` finished jobs, dropping the oldest finished
  first; ``status`` and ``result`` answer ``unknown job`` for a dropped
  id.  Queued and running jobs are always kept.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from ..obs import log as obs_log
from ..parallel import (ReportCollector, ResultCache, TaskError, TaskReport,
                        as_cache, default_cache_dir)
from . import protocol
from .executor import JobSpecError, execute_job, validate_job

#: Finished (done or failed) job records a server keeps, with their
#: results, for ``status`` and ``result``.
MAX_FINISHED_JOBS = 1000


@dataclass(frozen=True)
class ServerConfig:
    """Everything a :class:`JobServer` needs to listen and execute."""

    host: str = protocol.DEFAULT_HOST
    port: int = protocol.DEFAULT_PORT        # 0 = let the OS pick
    socket_path: Optional[str] = None        # unix socket; overrides TCP
    cache: Union[None, bool, str, Path, ResultCache] = True
    cache_max_mb: Optional[float] = None     # LRU size budget
    workers: int = 1                         # concurrent jobs
    job_jobs: Optional[int] = None           # run_tasks fan-out per job


@dataclass
class JobRecord:
    """One submission's full lifecycle, addressable by ``job_id``."""

    job_id: str
    spec: Dict[str, Any]
    state: str = "queued"          # queued | running | done | failed
    submitted: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    failed_label: Optional[str] = None
    stats: Optional[Dict[str, Any]] = None
    subscribers: List[asyncio.Queue] = field(default_factory=list)

    def public(self) -> Dict[str, Any]:
        """The record as served by ``status`` (no result payload)."""
        return {
            "job_id": self.job_id, "kind": self.spec.get("kind"),
            "state": self.state, "submitted": self.submitted,
            "started": self.started, "finished": self.finished,
            "error": self.error, "failed_label": self.failed_label,
            "stats": self.stats,
        }


class JobServer:
    """Asyncio job server; see the module docstring for the contracts."""

    def __init__(self, config: ServerConfig) -> None:
        if config.workers < 1:
            raise ValueError("workers must be >= 1")
        self.config = config
        cache = config.cache
        if cache is True:
            cache = ResultCache(default_cache_dir(),
                                max_bytes=self._budget_bytes())
        elif isinstance(cache, (str, Path)):
            cache = ResultCache(cache, max_bytes=self._budget_bytes())
        self.store = as_cache(cache)
        self.queue: Deque[JobRecord] = deque()
        self.jobs: Dict[str, JobRecord] = {}
        self.running: Dict[str, JobRecord] = {}
        #: Ids of the finished jobs still in ``jobs``, oldest first.
        self._finished: Deque[str] = deque()
        self.counters = {"submitted": 0, "completed": 0, "failed": 0,
                         "invalid": 0}
        self._job_seq = 0
        self._started = time.time()
        self._cond: Optional[asyncio.Condition] = None
        self._stop: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_tasks: List[asyncio.Task] = []

    def _budget_bytes(self) -> Optional[int]:
        mb = self.config.cache_max_mb
        return None if mb is None else int(mb * (1 << 20))

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and launch the worker pool."""
        self._cond = asyncio.Condition()
        self._stop = asyncio.Event()
        if self.config.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.config.socket_path,
                limit=protocol.MAX_LINE_BYTES)
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.config.host,
                port=self.config.port, limit=protocol.MAX_LINE_BYTES)
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self.config.workers)
        ]

    @property
    def address(self) -> Union[Tuple[str, int], str]:
        """Bound address: ``(host, port)`` for TCP, the path for unix."""
        if self.config.socket_path is not None:
            return self.config.socket_path
        assert self._server is not None and self._server.sockets
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def serve_until_stopped(self) -> None:
        """Run until ``shutdown`` arrives, then drain running jobs."""
        assert self._stop is not None
        await self._stop.wait()
        self._server.close()
        await self._server.wait_closed()
        # Workers exit once the stop flag is visible under the condition;
        # a worker mid-job finishes that job first (queued jobs drop).
        async with self._cond:
            self._cond.notify_all()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)

    async def run(self, ready: Optional[threading.Event] = None) -> None:
        """``start`` + ``serve_until_stopped`` (the CLI entry point)."""
        await self.start()
        if ready is not None:
            ready.set()
        await self.serve_until_stopped()

    def request_stop(self) -> None:
        assert self._stop is not None
        self._stop.set()

    # -- scheduling ----------------------------------------------------------

    async def _enqueue(self, record: JobRecord) -> None:
        async with self._cond:
            self.queue.append(record)
            self._cond.notify()

    async def _next_job(self) -> Optional[JobRecord]:
        # Woken by _enqueue (one notify per append) or by the shutdown
        # notify_all in serve_until_stopped.
        async with self._cond:
            await self._cond.wait_for(
                lambda: self.queue or self._stop.is_set())
            if self._stop.is_set():
                return None          # shutdown drops still-queued jobs
            return self.queue.popleft()

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._next_job()
            if job is None:
                return
            job.state = "running"
            job.started = time.time()
            self.running[job.job_id] = job
            kind = str(job.spec.get("kind"))
            obs_log.emit("job_started", job_id=job.job_id, kind=kind)

            def forward(report: TaskReport, job=job) -> None:
                loop.call_soon_threadsafe(
                    self._publish, job,
                    {"event": "progress", "job_id": job.job_id,
                     **dataclasses.asdict(report)})

            collector = ReportCollector(chain=forward, cache=self.store)
            start = time.perf_counter()
            try:
                # bind() threads the job's identity into the executor
                # thread (asyncio.to_thread copies the contextvars), so
                # every record the executor and run_tasks emit carries
                # this job_id without any signature plumbing.
                with obs_log.bind(job_id=job.job_id, kind=kind):
                    result = await asyncio.to_thread(
                        execute_job, job.spec, jobs=self.config.job_jobs,
                        cache=self.store, progress=collector)
            except Exception as exc:
                elapsed = time.perf_counter() - start
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.failed_label = getattr(exc, "label", None) \
                    if isinstance(exc, TaskError) else None
                job.finished = time.time()
                self.counters["failed"] += 1
                self._publish(job, {"event": "failed",
                                    "job_id": job.job_id,
                                    "error": job.error,
                                    "label": job.failed_label})
                obs_log.emit("job_failed", job_id=job.job_id, kind=kind,
                             error=job.error, label=job.failed_label,
                             seconds=round(elapsed, 6))
            else:
                elapsed = time.perf_counter() - start
                job.state = "done"
                job.result = result
                job.finished = time.time()
                job.stats = {"elapsed": round(elapsed, 6),
                             **collector.summary()}
                self.counters["completed"] += 1
                self._publish(job, {"event": "done",
                                    "job_id": job.job_id,
                                    "result": result,
                                    "stats": job.stats})
                obs_log.emit("job_done", job_id=job.job_id, kind=kind,
                             seconds=round(elapsed, 6),
                             tasks=collector.total,
                             executed=collector.executed,
                             cached=collector.cached)
            finally:
                self.running.pop(job.job_id, None)
                if job.finished is not None:
                    self._retire(job)

    def _retire(self, job: JobRecord) -> None:
        """Keep ``job``'s record among the finished ones, dropping the
        oldest finished records past :data:`MAX_FINISHED_JOBS`."""
        self._finished.append(job.job_id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            del self.jobs[self._finished.popleft()]

    def _publish(self, job: JobRecord, event: Dict[str, Any]) -> None:
        for queue in job.subscribers:
            queue.put_nowait(event)

    # -- protocol handlers ---------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        async def send(message: Dict[str, Any]) -> None:
            writer.write(protocol.encode(message))
            await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError):
                    # ValueError: line exceeded the stream limit — a
                    # framing error, not a workload; drop the client.
                    break
                if not line:
                    break
                try:
                    message = protocol.decode(line)
                except ValueError as exc:
                    await send({"ok": False, "event": "invalid",
                                "error": f"malformed request: {exc}"})
                    continue
                cmd = message.get("cmd")
                if cmd == "ping":
                    await send({"ok": True, "event": "pong",
                                "protocol": protocol.PROTOCOL_VERSION})
                elif cmd == "submit":
                    await self._cmd_submit(message, send)
                elif cmd == "status":
                    await self._cmd_status(message, send)
                elif cmd == "result":
                    await self._cmd_result(message, send)
                elif cmd == "stats":
                    await send({"ok": True, "event": "stats",
                                "server": self.stats()})
                elif cmd == "shutdown":
                    await send({"ok": True, "event": "bye"})
                    self.request_stop()
                    break
                else:
                    await send({"ok": False, "event": "invalid",
                                "error": f"unknown command {cmd!r}"})
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _cmd_submit(self, message: Dict[str, Any], send) -> None:
        try:
            spec = validate_job(message.get("job"))
        except JobSpecError as exc:
            self.counters["invalid"] += 1
            obs_log.emit("job_invalid", error=str(exc))
            await send({"ok": False, "event": "invalid",
                        "error": str(exc)})
            return
        self._job_seq += 1
        record = JobRecord(job_id=f"job-{self._job_seq:06d}", spec=spec)
        self.jobs[record.job_id] = record
        self.counters["submitted"] += 1

        events: Optional[asyncio.Queue] = None
        if message.get("stream", True):
            events = asyncio.Queue()
            record.subscribers.append(events)
        obs_log.emit("job_submitted", job_id=record.job_id,
                     kind=str(spec.get("kind")))
        await self._enqueue(record)
        await send({"ok": True, "event": "accepted",
                    "job_id": record.job_id, "queued": len(self.queue)})
        if events is None:
            return
        try:
            while True:
                event = await events.get()
                await send(event)
                if event["event"] in ("done", "failed"):
                    return
        finally:
            record.subscribers.remove(events)

    async def _cmd_status(self, message: Dict[str, Any], send) -> None:
        record = self.jobs.get(message.get("job_id"))
        if record is None:
            await send({"ok": False, "event": "invalid",
                        "error": f"unknown job {message.get('job_id')!r}"})
            return
        await send({"ok": True, "event": "status", "job": record.public()})

    async def _cmd_result(self, message: Dict[str, Any], send) -> None:
        record = self.jobs.get(message.get("job_id"))
        if record is None:
            await send({"ok": False, "event": "invalid",
                        "error": f"unknown job {message.get('job_id')!r}"})
            return
        if record.state == "done":
            await send({"ok": True, "event": "result",
                        "job_id": record.job_id, "result": record.result,
                        "stats": record.stats})
        elif record.state == "failed":
            await send({"ok": False, "event": "failed",
                        "job_id": record.job_id, "error": record.error,
                        "label": record.failed_label})
        else:
            await send({"ok": False, "event": "pending",
                        "job_id": record.job_id, "state": record.state})

    def stats(self) -> Dict[str, Any]:
        """The ``stats`` endpoint payload."""
        return {
            "uptime": round(time.time() - self._started, 3),
            "pending": len(self.queue),
            "running": len(self.running),
            "workers": self.config.workers,
            "job_jobs": self.config.job_jobs,
            "counters": dict(self.counters),
            "cache": self.store.stats() if self.store is not None
            else None,
        }


class ThreadedServer:
    """Run a :class:`JobServer` on a daemon thread's event loop.

    The in-process harness used by the tests and the load-test benchmark
    (and handy in notebooks)::

        with ThreadedServer(ServerConfig(port=0, cache=dir)) as server:
            host, port = server.address
            ...

    ``__exit__`` requests a stop and joins the thread.
    """

    def __init__(self, config: ServerConfig) -> None:
        self.server = JobServer(config)
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(target=self._main, daemon=True,
                                        name="repro-serve")

    def _main(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.run(self._ready))
        finally:
            self._loop.close()

    def __enter__(self) -> "ThreadedServer":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("job server failed to start within 30s")
        return self

    @property
    def address(self) -> Union[Tuple[str, int], str]:
        return self.server.address

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(timeout=60)
