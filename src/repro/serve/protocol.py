"""Wire protocol for the job server: newline-delimited JSON.

Every message — request or event — is one JSON object on one line,
UTF-8, ``\\n``-terminated.  A connection carries a sequence of requests;
a streaming submission (``"stream": true``) holds the connection and
receives ``progress`` events followed by one terminal ``done``/``failed``
event.

Requests (``cmd``):

``ping``
    → ``{"ok": true, "event": "pong", "protocol": 3}``
``submit``
    ``{"cmd": "submit", "stream": true,
    "job": {"kind": "sweep"|"compare"|"explore", ...}}``
    → ``accepted`` (with ``job_id``) or ``invalid`` (validation error).
    Jobs start in acceptance order, whichever connection submitted them.
``status`` / ``result``
    ``{"cmd": "status", "job_id": "..."}`` → the job record / its result.
``stats``
    → ``uptime``, ``pending``, ``running``, ``workers``, ``job_jobs``,
    the ``counters`` (submitted/completed/failed/invalid) and the
    ``cache`` entry/byte totals with their lifetime counters.
``shutdown``
    → ``{"ok": true, "event": "bye"}``; the server finishes running
    jobs, drops queued ones and exits.

Any other ``cmd`` gets ``{"ok": false, "event": "invalid"}`` naming the
unknown command.

Version history: 1 (initial) → 2 (adds the ``metrics`` command;
``stats`` replaces ``ema_job_seconds`` with ``retry_estimator`` and
gains ``observability``; ``status`` job records gain ``span``) → 3
(FIFO only: removes the ``metrics`` command, back-pressure and its
``rejected`` event, and the submission's ``priority`` and ``client``
fields; ``stats`` drops ``max_pending``, ``pending_by_client``,
``retry_after``, ``retry_estimator``, ``observability`` and the
``rejected`` counter; ``status`` job records drop ``client``,
``priority`` and ``span``).
"""

from __future__ import annotations

import json
from typing import Any, Dict

PROTOCOL_VERSION = 3

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Largest accepted request line (1 MiB): submissions are small command
#: objects, so anything bigger is a framing error, not a workload.
MAX_LINE_BYTES = 1 << 20


def encode(message: Dict[str, Any]) -> bytes:
    """One protocol message as a complete wire line."""
    return (json.dumps(message, separators=(",", ":"),
                       sort_keys=True) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; raises ``ValueError`` on malformed input."""
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError("protocol message must be a JSON object")
    return message
