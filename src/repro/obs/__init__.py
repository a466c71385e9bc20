"""Host-side structured logging for the execution and serving stack.

:mod:`repro.obs.log` is structured one-line-JSON logging behind the
``REPRO_LOG_FORMAT=text|json`` escape hatch (text stays byte-stable
with the legacy stderr prints), with contextvar-carried correlation ids
threading one ``job_id`` from submission to response.

Contract (DESIGN.md §16): logging never changes results.
"""

from .log import SCHEMA as LOG_SCHEMA
from .log import bind, context, emit, log_format

__all__ = ["LOG_SCHEMA", "bind", "context", "emit", "log_format"]
