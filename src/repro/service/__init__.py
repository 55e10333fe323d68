"""Analysis service layer: persistent caching, batch execution, serving.

The pipeline (:mod:`repro.analysis.pipeline`) made the per-stage artifacts
explicit; this package makes them *durable* and *shared*:

* :mod:`repro.service.cache` — a content-addressed artifact store: programs
  are keyed by the SHA-256 of their canonical text
  (:func:`repro.lang.printer.canonical_program`) plus the analysis options,
  backed by an in-memory LRU and an on-disk pickle cache that survives the
  process and is shared between processes.
* :mod:`repro.service.executor` — the batch executor: a named workload
  run in this process or on worker processes, with per-program error
  isolation, deterministic result ordering, and a shared disk cache.
* :mod:`repro.service.store` — the durable job queue: a SQLite/WAL-backed
  :class:`JobStore` with priorities, idempotent enqueue, leases with
  visibility timeouts, bounded retries with exponential backoff, and a
  dead-letter state.  Every transition is one transaction; an acked result
  survives any crash.
* :mod:`repro.service.jobs` — the worker fleet: :class:`WorkerPool`
  processes drain the store through the analysis pipeline + shared
  artifact cache until stopped, with per-job error isolation, lease
  heartbeats, respawn and crash re-delivery, and graceful SIGTERM drain.
* :mod:`repro.service.metrics` — ``GET /metrics``: queue depth, per-state
  counts, retry counters, cache hit rate, and p50/p99 analysis latency in
  JSON and Prometheus text formats.
* :mod:`repro.service.server` — ``repro serve``: a stdlib-only HTTP JSON
  API (``POST /analyze``, ``POST /jobs``, ``GET /jobs/{id}[/result]``,
  ``POST /batch``, ``GET /metrics``, ``GET /health``, ``GET
  /cache/stats``) keeping warm pipelines per program hash.  With
  ``--workers N``, ``POST /batch`` is the durable way to run a workload.
"""

from repro.lazy import lazy_exports

#: Public name -> defining module, imported on first access: a warm
#: ``repro analyze --cache-dir`` needs the cache, not the executor, the
#: worker fleet or the job store.
_EXPORTS = {
    "ArtifactCache": "repro.service.cache",
    "CacheStats": "repro.service.cache",
    "default_cache_dir": "repro.service.cache",
    "program_key": "repro.service.cache",
    "BatchItem": "repro.service.executor",
    "BatchReport": "repro.service.executor",
    "run_batch": "repro.service.executor",
    "WorkerPool": "repro.service.jobs",
    "Job": "repro.service.store",
    "JobStore": "repro.service.store",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
