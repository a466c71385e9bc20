"""Logging tests: the log contract.

The load-bearing guarantees pinned here:

* the structured-log record shape (schema, sorted keys, reserved-key
  protection) is pinned, and the text format stays byte-identical to
  the legacy stderr prints;
* an invalid ``REPRO_LOG_FORMAT`` is refused before any simulation runs,
  and the CLI reports it in one line.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.noc.traffic import named_pattern_factory
from repro.obs import emit, log_format
from repro.obs.log import SCHEMA as LOG_SCHEMA
from repro.parallel import (EXECUTION_COUNTER, TaskReport, log_progress,
                            run_tasks)


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
        emit("real_event", schema=99, ts="fake")
        record = json.loads(capsys.readouterr().err)
        assert record["schema"] == LOG_SCHEMA
        assert record["event"] == "real_event"
        assert record["ts"] != "fake"


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

