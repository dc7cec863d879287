"""Compile-as-a-service: an async multi-tenant front door for the pipeline.

The paper's premise is many applications dynamically sharing one CGRA
under a PageMaster; this package is the system analogue — many tenants
dynamically sharing one *compiler*.  A long-running asyncio service
accepts (kernel, arch preset, mapper config) requests over HTTP,
resolves each to its content address
(:func:`repro.pipeline.compile.job_key`), and serves the artifact bytes:

* **Singleflight** (:mod:`repro.serve.singleflight`) — concurrent
  identical requests coalesce onto one in-flight compile, keyed by the
  :class:`~repro.pipeline.artifact.ArtifactKey` digest, so N duplicate
  requests cost exactly one mapper invocation.
* **Fair scheduling** (:mod:`repro.serve.scheduler`) — cache misses
  dispatch through a weighted round-robin across tenants with per-request
  priorities and cooperative cancellation, onto a bounded set of compile
  slots.
* **Warm worker pool** (:mod:`repro.serve.service`) — one long-lived
  :class:`~repro.compiler.search.SearchContext` (pre-forked probe
  processes plus the shared WorkerBudget) serves every request's ladders,
  instead of a pool per batch.
* **Byte parity** — responses are read back from the
  :class:`~repro.pipeline.store.ArtifactStore` files, so a served payload
  is byte-identical to the offline :func:`~repro.pipeline.compile
  .compile_many` output at any concurrency.

``python -m repro.serve`` runs the server; ``python -m repro.bench serve``
load-generates against an in-process instance, prints throughput, latency
percentiles, coalesce rate and cache hit rate, and asserts one compile
per distinct job and byte parity.  The service's timed workload is the
benchmark's ``serve-mixed`` (``perfbench/``).
"""

from repro.serve.protocol import (
    CompileRequest,
    ProtocolError,
    ServeResult,
)
from repro.serve.scheduler import CancelToken, FairScheduler, RequestCancelled
from repro.serve.service import CompileService, ServiceConfig
from repro.serve.singleflight import Singleflight

__all__ = [
    "CompileRequest",
    "ServeResult",
    "ProtocolError",
    "CancelToken",
    "FairScheduler",
    "RequestCancelled",
    "CompileService",
    "ServiceConfig",
    "Singleflight",
]
