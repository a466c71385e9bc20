"""Thin blocking client for the job server.

:class:`ServeClient` speaks the NDJSON protocol over a plain socket
(TCP or unix), one request-response exchange per call, holding the
connection open for streaming submissions.  It is deliberately
dependency-free and synchronous — the async machinery lives entirely in
the server — so harness scripts, the ``repro submit`` CLI, benchmarks
and tests all share one code path.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Callable, Dict, List, Optional

from . import protocol


class ServeError(RuntimeError):
    """Base class for client-visible server errors."""


class JobRejected(ServeError):
    """The server refused the submission (validation failure)."""


class JobFailed(ServeError):
    """The job executed and failed; ``label`` names the failing task
    when the failure carried one (see :class:`repro.parallel.TaskError`)."""

    def __init__(self, message: str, label: Optional[str] = None) -> None:
        super().__init__(message)
        self.label = label


class ServeClient:
    """Blocking NDJSON client; usable as a context manager.

    One instance holds one connection.  ``host``/``port`` for TCP,
    ``socket_path`` for a unix socket.
    """

    def __init__(self, host: str = protocol.DEFAULT_HOST,
                 port: int = protocol.DEFAULT_PORT,
                 socket_path: Optional[str] = None,
                 timeout: Optional[float] = 300.0) -> None:
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        else:
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout)
        self._file = self._sock.makefile("rb")

    # -- plumbing ------------------------------------------------------------

    def _send(self, message: Dict[str, Any]) -> None:
        self._sock.sendall(protocol.encode(message))

    def _recv(self) -> Dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ServeError("server closed the connection")
        return protocol.decode(line)

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request, one reply (no streaming)."""
        self._send(message)
        return self._recv()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- commands ------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        reply = self.request({"cmd": "ping"})
        if not reply.get("ok"):
            raise ServeError(f"ping failed: {reply}")
        return reply

    def stats(self) -> Dict[str, Any]:
        reply = self.request({"cmd": "stats"})
        if not reply.get("ok"):
            raise ServeError(f"stats failed: {reply}")
        return reply["server"]

    def status(self, job_id: str) -> Dict[str, Any]:
        reply = self.request({"cmd": "status", "job_id": job_id})
        if not reply.get("ok"):
            raise ServeError(reply.get("error", f"status failed: {reply}"))
        return reply["job"]

    def shutdown(self) -> None:
        """Ask the server to finish running jobs and exit."""
        reply = self.request({"cmd": "shutdown"})
        if not reply.get("ok"):
            raise ServeError(f"shutdown failed: {reply}")

    def submit(self, job: Dict[str, Any], *,
               progress: Optional[Callable[[Dict[str, Any]], None]] = None,
               events: Optional[List[Dict[str, Any]]] = None
               ) -> Dict[str, Any]:
        """Submit a job, stream its progress, return its result payload.

        Blocks until the job finishes.  ``progress`` receives each
        ``progress`` event dict as it streams in; ``events`` (a list)
        additionally collects every event verbatim.  Raises
        :class:`JobRejected` on validation failure and :class:`JobFailed`
        when the job errors.
        """
        self._send({"cmd": "submit", "stream": True, "job": job})
        reply = self._recv()
        if events is not None:
            events.append(reply)
        if reply.get("event") == "invalid":
            raise JobRejected(reply.get("error", json.dumps(reply)))
        if reply.get("event") != "accepted":
            raise ServeError(f"unexpected reply: {reply}")

        while True:
            event = self._recv()
            if events is not None:
                events.append(event)
            name = event.get("event")
            if name == "progress":
                if progress is not None:
                    progress(event)
            elif name == "done":
                return event["result"]
            elif name == "failed":
                raise JobFailed(event.get("error", "job failed"),
                                label=event.get("label"))
            else:
                raise ServeError(f"unexpected event: {event}")
