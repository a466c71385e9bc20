"""Logging tests: the log contract, serve correlation, cache counters.

The load-bearing guarantees pinned here:

* the structured-log record shape (schema, sorted keys, reserved-key
  protection) is pinned, and the text format stays byte-identical to
  the legacy stderr prints;
* an invalid ``REPRO_LOG_FORMAT`` is refused before any simulation runs,
  and the CLI reports it in one line;
* a served job's JSON log records all carry its ``job_id``, including
  the ones emitted on the executor thread;
* the result cache keeps exact lifetime counters.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.noc.traffic import named_pattern_factory
from repro.obs import bind, context, emit, log_format
from repro.obs.log import SCHEMA as LOG_SCHEMA
from repro.parallel import (EXECUTION_COUNTER, ResultCache, TaskReport,
                            log_progress, run_tasks)
from repro.serve import ServeClient, ServerConfig, ThreadedServer

SWEEP_JOB = {"kind": "sweep", "design": "CP-DOR", "rates": [0.01],
             "warmup": 50, "measure": 100}


def serve(tmp_path, name="cache", **overrides):
    config = ServerConfig(port=0, cache=str(tmp_path / name), **overrides)
    return ThreadedServer(config)


def connect(server, **kw) -> ServeClient:
    host, port = server.address
    return ServeClient(host=host, port=port, **kw)


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------


class TestLogFormat:
    def test_default_is_text(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_FORMAT", raising=False)
        assert log_format() == "text"

    def test_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "xml")
        with pytest.raises(ValueError, match="REPRO_LOG_FORMAT"):
            log_format()

    def test_run_tasks_rejects_bad_format_before_any_task(self,
                                                          monkeypatch):
        # A typo must not cost a finished simulation: the format is
        # checked before the first task runs, not at its first record.
        from repro.core.builder import BASELINE
        from repro.experiments import open_loop_task
        task = open_loop_task(BASELINE, named_pattern_factory("uniform"),
                              "uniform", 0.01, base_seed=7, warmup=20,
                              measure=40)
        monkeypatch.setenv("REPRO_LOG_FORMAT", "jsn")
        EXECUTION_COUNTER.reset()
        with pytest.raises(ValueError, match="REPRO_LOG_FORMAT"):
            run_tasks([task, task], jobs=1)
        assert EXECUTION_COUNTER.executed == 0

    def test_cli_reports_bad_format_in_one_line(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "jsn")
        EXECUTION_COUNTER.reset()
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--design", "TB-DOR", "--rates", "0.01",
                      "--warmup", "20", "--measure", "40"])
        message = str(excinfo.value.code)
        assert message.startswith("error: REPRO_LOG_FORMAT")
        assert "\n" not in message
        assert EXECUTION_COUNTER.executed == 0


class TestEmit:
    def test_text_mode_prints_message_only(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "text")
        emit("evt", "hello", extra=1)
        assert capsys.readouterr().err == "hello\n"

    def test_text_mode_machine_events_are_silent(self, monkeypatch,
                                                 capsys):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "text")
        emit("evt", field=1)
        out = capsys.readouterr()
        assert out.err == "" and out.out == ""

    def test_json_record_schema(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "json")
        emit("job_done", "finished", job_id="job-000001", seconds=1.5)
        line = capsys.readouterr().err.strip()
        record = json.loads(line)
        assert record["schema"] == LOG_SCHEMA
        assert record["event"] == "job_done"
        assert record["message"] == "finished"
        assert record["job_id"] == "job-000001"
        assert record["seconds"] == 1.5
        assert isinstance(record["ts"], float)
        # Keys sorted, compact separators: stable under grep/jq.
        assert line == json.dumps(record, sort_keys=True,
                                  separators=(",", ":"))

    def test_reserved_keys_protected(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "json")
        with bind(schema=99, ts="fake", event="fake"):
            emit("real_event", schema=99)
        record = json.loads(capsys.readouterr().err)
        assert record["schema"] == LOG_SCHEMA
        assert record["event"] == "real_event"
        assert record["ts"] != "fake"

    def test_bind_nests_and_restores(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "json")
        assert context() == {}
        with bind(job_id="j1"):
            with bind(client="alice"):
                assert context() == {"job_id": "j1", "client": "alice"}
                emit("inner")
            assert context() == {"job_id": "j1"}
        assert context() == {}
        record = json.loads(capsys.readouterr().err)
        assert record["job_id"] == "j1" and record["client"] == "alice"

    def test_fields_override_context(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "json")
        with bind(kind="sweep"):
            emit("evt", kind="compare")
        assert json.loads(capsys.readouterr().err)["kind"] == "compare"


class TestLogProgress:
    REPORT = TaskReport(index=2, total=10, label="CP-DOR/uniform@0.01",
                        seconds=1.2345, cached=False)

    def test_text_mode_byte_stable_with_legacy_print(self, monkeypatch,
                                                     capsys):
        monkeypatch.delenv("REPRO_LOG_FORMAT", raising=False)
        log_progress(self.REPORT)
        legacy = (f"[{self.REPORT.index + 1:3d}/{self.REPORT.total}] "
                  f"{self.REPORT.label:40s} "
                  f"{self.REPORT.seconds:7.2f}s (run)\n")
        assert capsys.readouterr().err == legacy

    def test_json_mode_structured_record(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "json")
        log_progress(self.REPORT)
        record = json.loads(capsys.readouterr().err)
        assert record["event"] == "task_progress"
        assert record["label"] == self.REPORT.label
        assert record["index"] == 2 and record["total"] == 10
        assert record["cached"] is False


# ---------------------------------------------------------------------------
# Serve integration
# ---------------------------------------------------------------------------


class TestServeMetrics:
    def test_json_logs_correlate_by_job_id(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "json")
        with serve(tmp_path) as server:
            with connect(server) as client:
                client.submit(SWEEP_JOB, events=(events := []))
        job_id = events[0]["job_id"]
        records = [json.loads(line) for line
                   in capsys.readouterr().err.splitlines() if line]
        by_event = {}
        for record in records:
            by_event.setdefault(record["event"], []).append(record)
        for event in ("job_submitted", "job_started", "job_execute",
                      "job_executed", "task_done", "job_done"):
            assert event in by_event, sorted(by_event)
            assert all(r["job_id"] == job_id for r in by_event[event])
        # The executor-thread records carry the bound context, proving
        # the contextvars crossed asyncio.to_thread.
        assert by_event["task_done"][0]["kind"] == "sweep"
        assert all(r["schema"] == LOG_SCHEMA for r in records)


# ---------------------------------------------------------------------------
# Result-cache lifetime counters
# ---------------------------------------------------------------------------


class TestCacheCounters:
    def test_lifetime_counters(self, tmp_path):
        store = ResultCache(tmp_path)
        assert store.get("missing") is None
        assert store.counters["misses"] == 1
        store.put("abc", {"result": 1})
        assert store.counters["puts"] == 1
        assert store.get("abc") == {"result": 1}
        assert store.counters["hits"] == 1
        assert store.stats()["counters"] == store.counters

    def test_eviction_counters(self, tmp_path):
        probe = ResultCache(tmp_path)
        probe.put("0" * 64, {"result": "x" * 200})
        size = probe.path_for("0" * 64).stat().st_size
        probe.clear()
        store = ResultCache(tmp_path, max_bytes=2 * size + size // 2)
        for i in range(4):
            store.put(f"{i:064x}", {"result": "x" * 200})
        assert store.counters["evictions"] == 2
        assert store.counters["evicted_bytes"] == 2 * size
        assert store.stats()["entries"] == 2
