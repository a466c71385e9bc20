"""Job-server tests: golden bit-identity, FIFO order, failure labels.

The load-bearing guarantees pinned here:

* results served through the job server are **bit-identical** to direct
  library calls — cold cache and warm cache, ``job_jobs`` 1 and 4;
* a warm-cache submission is answered **without re-simulation** (the
  terminal event's stats report ``executed == 0``);
* jobs start in the order the server accepted them, across connections;
* a failing job surfaces the failing task's label to the client.

The blocked-executor tests monkeypatch ``repro.serve.server.execute_job``
— the :class:`ThreadedServer` runs in-process, so the patch is visible to
the worker coroutines.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.experiments import compare_designs, load_latency_curves
from repro.noc.traffic import named_pattern_factory
from repro.parallel import TaskError
from repro.serve import (JobFailed, JobSpecError, ServeClient, ServerConfig,
                         ThreadedServer, validate_job)
from repro.serve.executor import COMPARE_DEFAULTS, SWEEP_DEFAULTS

SWEEP_JOB = {"kind": "sweep", "design": "CP-DOR", "rates": [0.01, 0.02],
             "warmup": 50, "measure": 100}
COMPARE_JOB = {"kind": "compare", "designs": ["CP-DOR", "TB-DOR"],
               "benchmarks": ["RD"], "warmup": 60, "measure": 120}


def serve(tmp_path, name="cache", **overrides):
    """A ThreadedServer on an OS-assigned port with a fresh cache dir."""
    config = ServerConfig(port=0, cache=str(tmp_path / name), **overrides)
    return ThreadedServer(config)


def connect(server, **kw) -> ServeClient:
    host, port = server.address
    return ServeClient(host=host, port=port, **kw)


def wait_until(predicate, timeout=20.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within "
                         f"{timeout}s: {predicate}")


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(JobSpecError, match="unknown job kind"):
            validate_job({"kind": "teleport"})

    def test_unknown_design_carries_hint(self):
        with pytest.raises(JobSpecError, match="unknown design"):
            validate_job({"kind": "sweep", "design": "TB-DORR",
                          "rates": [0.01]})

    def test_bad_rates(self):
        with pytest.raises(JobSpecError, match="rates"):
            validate_job({"kind": "sweep", "design": "CP-DOR",
                          "rates": []})
        with pytest.raises(JobSpecError, match="rates"):
            validate_job({"kind": "sweep", "design": "CP-DOR",
                          "rates": [0.01, "fast"]})

    def test_unknown_pattern(self):
        with pytest.raises(JobSpecError, match="unknown traffic pattern"):
            validate_job({"kind": "sweep", "design": "CP-DOR",
                          "rates": [0.01], "pattern": "tornado"})

    def test_unknown_benchmark(self):
        with pytest.raises(JobSpecError, match="unknown benchmark"):
            validate_job({"kind": "compare", "designs": ["CP-DOR"],
                          "benchmarks": ["NOPE"]})

    def test_unknown_preset(self):
        with pytest.raises(JobSpecError, match="unknown preset"):
            validate_job({"kind": "explore", "preset": "smokey"})

    def test_power_preset_accepted(self):
        spec = validate_job({"kind": "explore", "preset": "power"})
        assert spec["preset"] == "power"

    def test_defaults_match_library_defaults(self):
        # An unadorned submission must equal an unadorned direct call;
        # these literals pin the library signatures' defaults.
        spec = validate_job({"kind": "sweep", "design": "CP-DOR",
                             "rates": [0.01]})
        assert {k: spec[k] for k in SWEEP_DEFAULTS} == SWEEP_DEFAULTS
        spec = validate_job({"kind": "compare", "designs": ["CP-DOR"]})
        assert {k: spec[k] for k in COMPARE_DEFAULTS} == COMPARE_DEFAULTS


def direct_sweep(cache):
    """The direct-call twin of SWEEP_JOB."""
    from repro.core.builder import design_by_name
    (curve,) = load_latency_curves(
        [design_by_name("CP-DOR")],
        SWEEP_JOB["rates"], named_pattern_factory("uniform"),
        pattern_name="uniform", warmup=SWEEP_JOB["warmup"],
        measure=SWEEP_JOB["measure"], seed=SWEEP_DEFAULTS["seed"],
        cache=cache)
    return {"kind": "sweep", "curve": curve.to_json()}


def direct_compare(cache):
    """The direct-call twin of COMPARE_JOB."""
    from repro.core.builder import design_by_name
    from repro.workloads.profiles import profile
    comparison = compare_designs(
        [design_by_name(n) for n in COMPARE_JOB["designs"]],
        profiles=[profile("RD")], warmup=COMPARE_JOB["warmup"],
        measure=COMPARE_JOB["measure"], seed=COMPARE_DEFAULTS["seed"],
        cache=cache)
    return {"kind": "compare", "comparison": comparison.to_json()}


class TestServedBitIdentity:
    """Served results == direct library results, byte for byte."""

    @pytest.mark.parametrize("job_jobs", [None, 4],
                             ids=["jobs1", "jobs4"])
    def test_sweep_cold_and_warm(self, tmp_path, job_jobs):
        direct = direct_sweep(str(tmp_path / "direct"))
        with serve(tmp_path, job_jobs=job_jobs) as server:
            with connect(server) as client:
                events = []
                cold = client.submit(SWEEP_JOB, events=events)
                assert json.dumps(cold, sort_keys=True) == \
                    json.dumps(direct, sort_keys=True)
                done = events[-1]
                assert done["event"] == "done"
                assert done["stats"]["executed"] == len(SWEEP_JOB["rates"])

                warm = client.submit(SWEEP_JOB, events=(warm_events := []))
                assert json.dumps(warm, sort_keys=True) == \
                    json.dumps(direct, sort_keys=True)
                warm_done = warm_events[-1]
                assert warm_done["stats"]["executed"] == 0
                assert warm_done["stats"]["cached"] == \
                    len(SWEEP_JOB["rates"])

    def test_compare_cold_and_warm(self, tmp_path):
        direct = direct_compare(str(tmp_path / "direct"))
        with serve(tmp_path) as server:
            with connect(server) as client:
                cold = client.submit(COMPARE_JOB)
                assert json.dumps(cold, sort_keys=True) == \
                    json.dumps(direct, sort_keys=True)
                warm = client.submit(COMPARE_JOB, events=(events := []))
                assert json.dumps(warm, sort_keys=True) == \
                    json.dumps(direct, sort_keys=True)
                assert events[-1]["stats"]["executed"] == 0

    def test_progress_events_stream_per_task(self, tmp_path):
        with serve(tmp_path) as server:
            with connect(server) as client:
                events = []
                client.submit(SWEEP_JOB, events=events)
        names = [e["event"] for e in events]
        assert names[0] == "accepted" and names[-1] == "done"
        progress = [e for e in events if e["event"] == "progress"]
        assert len(progress) == len(SWEEP_JOB["rates"])
        assert all(not p["cached"] for p in progress)
        assert {p["label"] for p in progress} == {
            f"CP-DOR/uniform@{r:g}" for r in SWEEP_JOB["rates"]}


class TestServedExploreBitIdentity:
    def test_smoke_preset_served_equals_direct(self, tmp_path):
        """One cold exploration through the server, then the direct
        engine against the same cache: identical payloads, and the
        served warm re-submission never re-simulates."""
        from repro.dse import explore_preset
        cache = str(tmp_path / "cache")
        with serve(tmp_path) as server:
            with connect(server) as client:
                cold = client.submit({"kind": "explore",
                                      "preset": "smoke"})
                direct = explore_preset("smoke", cache=cache).to_json()
                assert json.dumps(cold["exploration"], sort_keys=True) \
                    == json.dumps(direct, sort_keys=True)
                # The power fields ride through the server bit-identical;
                # name them explicitly so a regression is named, not just
                # a json.dumps mismatch.
                served = cold["exploration"]
                assert served["tech_nodes"] == direct["tech_nodes"]
                assert served["frontier3d"] == direct["frontier3d"]
                for got, want in zip(served["candidates"],
                                     direct["candidates"]):
                    for key in ("noc_power_w", "ipc_per_watt",
                                "power_by_node", "on_frontier3d",
                                "dominated_by_3d"):
                        assert got[key] == want[key]
                    if got["hm_ipc"] is not None:
                        assert got["noc_power_w"] is not None
                warm = client.submit({"kind": "explore",
                                      "preset": "smoke"},
                                     events=(events := []))
                assert json.dumps(warm, sort_keys=True) == \
                    json.dumps(cold, sort_keys=True)
                assert events[-1]["stats"]["executed"] == 0
                assert events[-1]["stats"]["cached"] > 0


class _GatedExecutor:
    """execute_job stand-in that blocks until released (orders recorded)."""

    def __init__(self):
        self.release = threading.Event()
        self.ran = []
        self.lock = threading.Lock()

    def __call__(self, spec, *, jobs=None, cache=None, progress=None):
        if not self.release.wait(timeout=30):
            raise RuntimeError("gated executor never released")
        with self.lock:
            self.ran.append(spec.get("tag"))
        return {"kind": spec["kind"], "tag": spec.get("tag")}


@pytest.fixture
def gated(monkeypatch):
    executor = _GatedExecutor()
    monkeypatch.setattr("repro.serve.server.execute_job", executor)
    return executor


def submit_raw(client, job):
    """Non-streaming submission: returns the immediate reply."""
    return client.request({"cmd": "submit", "stream": False, "job": job})


class TestFifoScheduling:
    def test_fifo_across_connections(self, tmp_path, gated):
        def tagged(tag):
            return {**SWEEP_JOB, "tag": tag}

        with serve(tmp_path, workers=1) as server:
            with connect(server) as alice, connect(server) as bob:
                # The first job holds the worker while the rest queue up.
                submit_raw(alice, tagged("a0"))
                wait_until(lambda: alice.stats()["running"] == 1)
                for client, tag in ((alice, "a1"), (alice, "a2"),
                                    (bob, "b1"), (alice, "a3"),
                                    (bob, "b2")):
                    assert submit_raw(client, tagged(tag))["event"] == \
                        "accepted"
                # Protocol-2 scheduling fields are ignored, not honoured.
                reply = bob.request({"cmd": "submit", "stream": False,
                                     "client": "carol", "priority": 10,
                                     "job": tagged("b3")})
                assert reply["event"] == "accepted"
                assert alice.stats()["pending"] == 6
                gated.release.set()
                wait_until(lambda: bob.stats()["counters"]
                           ["completed"] == 7)
        assert gated.ran == ["a0", "a1", "a2", "b1", "a3", "b2", "b3"]


class TestBoundedRecords:
    def test_oldest_finished_records_are_dropped(self, tmp_path, gated,
                                                 monkeypatch):
        monkeypatch.setattr("repro.serve.server.MAX_FINISHED_JOBS", 3)
        gated.release.set()
        with serve(tmp_path) as server:
            with connect(server) as client:
                ids = []
                for i in range(5):
                    events = []
                    client.submit({**SWEEP_JOB, "tag": f"t{i}"},
                                  events=events)
                    ids.append(events[-1]["job_id"])
                for job_id in ids[:2]:
                    for cmd in ("status", "result"):
                        reply = client.request({"cmd": cmd,
                                                "job_id": job_id})
                        assert reply["ok"] is False
                        assert reply["error"] == f"unknown job {job_id!r}"
                for i, job_id in enumerate(ids[2:], start=2):
                    assert client.status(job_id)["state"] == "done"
                    reply = client.request({"cmd": "result",
                                            "job_id": job_id})
                    assert reply["event"] == "result"
                    assert reply["result"] == {"kind": "sweep",
                                               "tag": f"t{i}"}


class TestFailurePath:
    def test_task_error_label_reaches_client(self, tmp_path, monkeypatch):
        def explode(spec, *, jobs=None, cache=None, progress=None):
            raise TaskError("task 'poison' (index 2) failed: boom",
                            label="poison", index=2)

        monkeypatch.setattr("repro.serve.server.execute_job", explode)
        with serve(tmp_path) as server:
            with connect(server) as client:
                with pytest.raises(JobFailed) as excinfo:
                    client.submit(SWEEP_JOB)
                assert excinfo.value.label == "poison"
                assert "poison" in str(excinfo.value)
                stats = client.stats()
                assert stats["counters"]["failed"] == 1
                # The failure is queryable after the fact too.
                reply = client.request({"cmd": "result",
                                        "job_id": "job-000001"})
                assert reply["event"] == "failed"
                assert reply["label"] == "poison"


class TestProtocolEdges:
    def test_ping_stats_status_result(self, tmp_path):
        with serve(tmp_path) as server:
            with connect(server) as client:
                assert client.ping()["protocol"] == 3
                reply = submit_raw(client, SWEEP_JOB)
                job_id = reply["job_id"]
                wait_until(lambda: client.status(job_id)["state"]
                           == "done")
                record = client.status(job_id)
                assert record["kind"] == "sweep"
                assert record["stats"]["executed"] == \
                    len(SWEEP_JOB["rates"])
                result = client.request({"cmd": "result",
                                         "job_id": job_id})
                assert result["event"] == "result"
                assert result["result"]["kind"] == "sweep"

    def test_invalid_submission_and_unknown_command(self, tmp_path):
        with serve(tmp_path) as server:
            with connect(server) as client:
                reply = submit_raw(client, {"kind": "sweep",
                                            "design": "NOPE",
                                            "rates": [0.01]})
                assert reply["event"] == "invalid"
                assert "unknown design" in reply["error"]
                reply = client.request({"cmd": "frobnicate"})
                assert reply["event"] == "invalid"
                # The metrics endpoint left with protocol 3.
                reply = client.request({"cmd": "metrics"})
                assert reply["event"] == "invalid"
                assert reply["error"] == "unknown command 'metrics'"
                reply = client.request({"cmd": "status",
                                        "job_id": "job-999999"})
                assert reply["ok"] is False
                stats = client.stats()
                assert stats["counters"]["invalid"] == 1
                assert stats["counters"]["submitted"] == 0

    def test_malformed_line_keeps_connection_alive(self, tmp_path):
        with serve(tmp_path) as server:
            with connect(server) as client:
                client._sock.sendall(b"this is not json\n")
                reply = client._recv()
                assert reply["event"] == "invalid"
                assert client.ping()["ok"]   # still usable afterwards

    def test_shutdown_stops_the_server(self, tmp_path):
        server = serve(tmp_path)
        with server:
            with connect(server) as client:
                client.shutdown()
            server._thread.join(timeout=30)
            assert not server._thread.is_alive()

    def test_cache_stats_served(self, tmp_path):
        with serve(tmp_path) as server:
            with connect(server) as client:
                client.submit(SWEEP_JOB, events=(events := []))
                stats = client.stats()
        cache = stats["cache"]
        assert cache["entries"] == len(SWEEP_JOB["rates"])
        assert cache["bytes"] > 0
        assert cache["counters"]["puts"] == len(SWEEP_JOB["rates"])
        assert cache["counters"]["misses"] == len(SWEEP_JOB["rates"])
        # The job's own stats carry the store's lifetime counters as of
        # completion (via ReportCollector).
        assert events[-1]["stats"]["cache_counters"]["puts"] == \
            len(SWEEP_JOB["rates"])
        assert set(stats) == {"uptime", "pending", "running", "workers",
                              "job_jobs", "counters", "cache"}
        assert stats["counters"] == {"submitted": 1, "completed": 1,
                                     "failed": 0, "invalid": 0}
