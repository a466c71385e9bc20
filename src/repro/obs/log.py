"""Structured one-line-JSON logging.

Every operational message of the execution stack flows through
:func:`emit`.  The output format is an environment escape hatch, not an
API choice, so existing CI greps keep working:

* ``REPRO_LOG_FORMAT=text`` (the default) prints only the
  human-readable ``message`` — byte-for-byte what the scattered stderr
  prints used to produce.  Events without a message are silent.
* ``REPRO_LOG_FORMAT=json`` prints one JSON object per line with a
  pinned schema: ``schema`` (:data:`SCHEMA`), ``ts`` (unix seconds),
  ``event`` (the record type), plus the per-call fields, and
  ``message`` when one was given.  Keys are sorted, so records are
  stable under ``grep``/``jq``.

The reserved keys ``schema``/``ts``/``event`` can never be shadowed by
fields.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, Optional, TextIO

#: Bumped whenever the record shape changes incompatibly.
SCHEMA = 1

FORMATS = ("text", "json")

_RESERVED = ("schema", "ts", "event")


def log_format() -> str:
    """The active format: ``REPRO_LOG_FORMAT``, defaulting to ``text``."""
    value = os.environ.get("REPRO_LOG_FORMAT", "").strip().lower()
    if not value:
        return "text"
    if value not in FORMATS:
        raise ValueError(f"REPRO_LOG_FORMAT must be one of {FORMATS}, "
                         f"got {value!r}")
    return value


def emit(event: str, message: Optional[str] = None, *,
         stream: Optional[TextIO] = None, **fields: Any) -> None:
    """Emit one log record.

    In text mode, prints ``message`` (if any) and nothing else — events
    that only exist for machines are silent, which is what keeps the
    human-readable output byte-stable.  In json mode, prints the full
    record regardless.
    """
    mode = log_format()
    out = stream if stream is not None else sys.stderr
    if mode == "text":
        if message is not None:
            print(message, file=out)
        return
    record: Dict[str, Any] = dict(fields)
    for key in _RESERVED:
        record.pop(key, None)
    record["schema"] = SCHEMA
    record["ts"] = round(time.time(), 6)
    record["event"] = str(event)
    if message is not None:
        record["message"] = message
    print(json.dumps(record, sort_keys=True, separators=(",", ":"),
                     default=str), file=out)
