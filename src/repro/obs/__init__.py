"""Host-side structured logging for the execution stack.

:mod:`repro.obs.log` is structured one-line-JSON logging behind the
``REPRO_LOG_FORMAT=text|json`` escape hatch (text stays byte-stable
with the legacy stderr prints).

Contract (DESIGN.md §16): logging never changes results.
"""

from .log import SCHEMA as LOG_SCHEMA
from .log import emit, log_format

__all__ = ["LOG_SCHEMA", "emit", "log_format"]
