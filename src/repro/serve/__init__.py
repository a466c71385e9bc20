"""A local job runner over the harness: one shared pool and result cache.

The paper's evaluation is a batch of design-point simulations on one
host.  This package keeps :mod:`repro.parallel` and the DSE engine
resident behind a socket, so repeat design-point queries are answered
from the warm result cache in milliseconds:

* :mod:`repro.serve.protocol` — the newline-delimited-JSON wire
  protocol: commands, event shapes, defaults and version history;
* :mod:`repro.serve.executor` — validates submissions (kinds
  ``sweep``/``compare``/``explore``, did-you-mean hints) and routes
  each one through the *exact* library entry point a direct caller
  would use (:func:`repro.experiments.load_latency_curves`,
  :func:`repro.experiments.compare_designs`,
  :func:`repro.dse.explore_preset`), so served results are
  bit-identical to direct runs;
* :mod:`repro.serve.server` — the asyncio :class:`JobServer` (TCP or
  unix socket): a FIFO queue, streaming
  :class:`repro.parallel.TaskReport` progress to the submitting
  connection, fail-fast with the failing task's label, a shared
  SHA-keyed :class:`repro.parallel.ResultCache` with an LRU size
  budget, a JSON ``stats`` command, and job-lifecycle logs correlated
  by ``job_id`` (:mod:`repro.obs.log`);
* :mod:`repro.serve.client` — a thin blocking client
  (:class:`ServeClient`) underneath ``repro submit``.

Quickstart::

    # terminal 1
    python -m repro serve --port 8642 --cache ~/.cache/repro-noc

    # terminal 2
    python -m repro submit sweep --design TB-DOR --rates 0.01,0.03
    python -m repro submit explore --preset smoke
    python -m repro submit stats
"""

from .client import JobFailed, JobRejected, ServeClient, ServeError
from .executor import JOB_KINDS, JobSpecError, execute_job, validate_job
from .protocol import DEFAULT_HOST, DEFAULT_PORT, PROTOCOL_VERSION
from .server import JobRecord, JobServer, ServerConfig, ThreadedServer

__all__ = [
    "DEFAULT_HOST", "DEFAULT_PORT", "JOB_KINDS", "JobFailed", "JobRecord",
    "JobRejected", "JobServer", "JobSpecError", "PROTOCOL_VERSION",
    "ServeClient", "ServeError", "ServerConfig", "ThreadedServer",
    "execute_job", "validate_job",
]
