"""``repro serve``: the HTTP face of the durable analysis service.

Two serving modes share one process:

* **Synchronous** (always on): ``POST /analyze`` runs the request inline on
  a warm per-program pipeline and returns the bounds — unchanged from the
  original demo server, still byte-identical to the CLI.
* **Queued** (``--workers N`` / ``--db PATH``): requests become durable
  jobs in a SQLite/WAL :class:`~repro.service.store.JobStore` drained by a
  :class:`~repro.service.jobs.WorkerPool` of analysis processes.  A server
  crash loses nothing: on restart, leased-but-unacked jobs are recovered
  and the fleet resumes the queue.

Endpoints:

* ``POST /analyze`` — inline analysis (see above).
* ``POST /check`` — inline policy check: body ``{"program": src,
  "spec": "<assertions>", "options": {...}}``; analyzes on the same warm
  pipeline/cache path as ``/analyze`` and returns the per-assertion
  pass/fail/inconclusive document of ``repro check --json``.  Durable
  checks ride the queue as ``POST /jobs`` with ``"kind": "check"``.
* ``POST /jobs`` — enqueue: body ``{"program": src, "options": {...},
  "priority": 0, "idempotency_key": "...", "dedupe": false,
  "max_attempts": 3}``; responds 202 with the job id (200 when an
  idempotency key deduped to an existing job).  429 when the queue is at
  the ``--max-queued`` backpressure limit.
* ``GET /jobs/{id}`` — job status (state, attempts, retries, timings).
* ``GET /jobs/{id}/result`` — 200 with the result document once done;
  202 while pending/running; 200 with ``ok=false`` + error for
  dead-lettered jobs; 404 for unknown ids.
* ``POST /batch`` — with a fleet: every program is enqueued and the
  handler waits for the queue to finish them (durable fan-out — the jobs
  survive even if the client disconnects); without a fleet it falls back
  to the in-process batch executor.  Response shape is identical either
  way, plus a ``job_id`` per item in queued mode.
* ``GET /metrics`` — queue depth, per-state counts, retry/dead counters,
  cache hit rate, and p50/p99 analysis latency; JSON by default,
  Prometheus text with ``?format=prometheus`` (or ``Accept:
  text/plain``).  See :mod:`repro.service.metrics` for every field.
* ``GET /health`` — liveness plus queue/fleet facts.
* ``GET /cache/stats`` — artifact-cache counters.

``options`` accepts the CLI's vocabulary: ``moments``, ``degree``,
``degree_cap``, ``at`` (a ``{var: value}`` valuation), ``upper_only``,
``unit_cost``, ``lexicographic``, ``lp_bound``, ``check``, ``deadline``,
``degrade``.  Any other key is a 400.
"""

from __future__ import annotations

import json
import re
import signal
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from threading import Lock

from repro import __version__
from repro.analysis.pipeline import AnalysisPipeline
from repro.lang.parser import ParseError, parse_program
from repro.service.cache import ArtifactCache, program_key
from repro.service.executor import run_batch
from repro.service.jobs import (
    RequestError,
    WorkerPool,
    enqueue_analysis,
    job_idempotency_key,
    options_from_dict,
    wait_for_jobs,
)
from repro.service.metrics import ServiceMetrics
from repro.service.store import JobStore

_JOB_PATH = re.compile(r"^/jobs/(\d+)(/result)?$")


class AnalysisService:
    """Warm-pipeline pool + cache + (optionally) the durable queue/fleet,
    shared by every request thread."""

    def __init__(
        self,
        cache: ArtifactCache | None = None,
        max_pipelines: int = 128,
        store: JobStore | None = None,
        pool: WorkerPool | None = None,
        max_queued: int | None = None,
        batch_timeout: float = 600.0,
    ) -> None:
        self.cache = cache
        self.max_pipelines = max_pipelines
        self.store = store
        self.pool = pool
        self.max_queued = max_queued
        self.batch_timeout = batch_timeout
        self.started = time.time()
        self.requests = 0
        self.metrics = ServiceMetrics(
            store=store, cache=cache, pool=pool, service=self
        )
        self._pipelines: "OrderedDict[str, tuple[AnalysisPipeline, Lock]]" = (
            OrderedDict()
        )
        self._lock = Lock()

    # -- warm pipelines ------------------------------------------------------

    def pipeline_for(self, source: str) -> tuple[AnalysisPipeline, Lock, str, bool]:
        """(pipeline, its request lock, program hash, was it already warm).

        The per-pipeline lock serializes requests for the *same* program:
        the first computes, later identical requests hit the result cache
        and return the identical object — hence identical response bytes.
        Requests for different programs proceed concurrently.
        """
        try:
            program = parse_program(source)
        except ParseError as exc:
            raise RequestError(f"program does not parse: {exc}") from exc
        key = program_key(program)
        with self._lock:
            warm = self._pipelines.get(key)
            if warm is not None:
                self._pipelines.move_to_end(key)
                return (*warm, key, True)
            pipeline = AnalysisPipeline(program, artifacts=self.cache)
            pipeline._program_hash = key
            entry = (pipeline, Lock())
            self._pipelines[key] = entry
            while len(self._pipelines) > self.max_pipelines:
                self._pipelines.popitem(last=False)
            return (*entry, key, False)

    # -- synchronous analysis ------------------------------------------------

    def analyze_request(self, payload: dict) -> dict:
        source = payload.get("program")
        if not isinstance(source, str) or not source.strip():
            raise RequestError('body must carry {"program": "<appl source>"}')
        options = options_from_dict(payload.get("options"))
        pipeline, lock, key, warm = self.pipeline_for(source)
        with lock:
            result = pipeline.analyze(options)
        # ``warm`` travels as a header (see the handler): response *bodies*
        # for identical requests must be byte-identical.
        return {
            "ok": True,
            "program": key,
            "summary": result.summary(),
            "result": result.to_dict(),
        }, warm

    def check_request(self, payload: dict) -> tuple[dict, bool]:
        """``POST /check``: run a policy spec against one program, inline.

        Rides the same warm-pipeline + artifact-cache path as ``/analyze``
        (an identical program shares its pipeline and cached stages), and
        returns the byte-stable check document of ``repro check --json``.
        """
        from repro.policy.evaluate import evaluate_spec
        from repro.policy.parser import ParseError as SpecParseError
        from repro.policy.parser import parse_spec
        from repro.policy.report import check_to_dict
        from repro.service.jobs import check_options
        from repro.tail.bounds import costs_nonnegative

        source = payload.get("program")
        if not isinstance(source, str) or not source.strip():
            raise RequestError('body must carry {"program": "<appl source>"}')
        spec_text = payload.get("spec")
        if not isinstance(spec_text, str) or not spec_text.strip():
            raise RequestError('body must carry {"spec": "<assertions>"}')
        try:
            spec = parse_spec(spec_text)
        except SpecParseError as exc:
            raise RequestError(f"spec does not parse: {exc}") from exc
        options = check_options(spec, payload.get("options"))
        pipeline, lock, key, warm = self.pipeline_for(source)
        with lock:
            result = pipeline.analyze(options)
        check = evaluate_spec(
            spec,
            result,
            program=key,
            nonnegative_cost=costs_nonnegative(pipeline.program),
        )
        return {
            "ok": True,
            "program": key,
            "verdict": check.verdict,
            "check": check_to_dict(check),
        }, warm

    # -- job queue -----------------------------------------------------------

    def _require_store(self) -> JobStore:
        if self.store is None:
            raise RequestError(
                "this server runs without a job store; restart with"
                " --workers/--db to enable /jobs"
            )
        return self.store

    def _check_backpressure(self, adding: int = 1) -> None:
        if self.max_queued is None:
            return
        depth = self._require_store().depth()
        if depth + adding > self.max_queued:
            raise BackpressureError(
                f"queue depth {depth} + {adding} would exceed the"
                f" --max-queued limit of {self.max_queued}; retry later"
            )

    def enqueue_request(self, payload: dict) -> tuple[dict, bool]:
        """``POST /jobs`` → (response, deduped)."""
        store = self._require_store()
        self._check_backpressure()
        kind = payload.get("kind", "analyze")
        try:
            priority = int(payload.get("priority", 0))
            max_attempts = int(payload.get("max_attempts", 3))
        except (TypeError, ValueError) as exc:
            raise RequestError(f"bad priority/max_attempts: {exc}") from exc
        key = payload.get("idempotency_key")
        if key is not None and not isinstance(key, str):
            raise RequestError("idempotency_key must be a string")
        if kind == "analyze":
            job_id, deduped = enqueue_analysis(
                store,
                payload.get("program"),
                payload.get("options"),
                priority=priority,
                idempotency_key=key,
                dedupe=bool(payload.get("dedupe", False)),
                max_attempts=max_attempts,
            )
        elif kind == "check":
            from repro.service.jobs import check_payload

            body = check_payload(
                payload.get("program"), payload.get("spec"), payload.get("options")
            )
            if key is None and payload.get("dedupe"):
                key = job_idempotency_key(kind, body)
            job_id, deduped = store.enqueue(
                body,
                kind=kind,
                priority=priority,
                idempotency_key=key,
                max_attempts=max_attempts,
            )
        elif kind in ("sleep", "fail"):
            # Diagnostic kinds: deterministic load / failure injection for
            # smoke tests and fleet drills.
            body = {
                k: v for k, v in payload.items()
                if k in ("seconds", "message", "retryable", "timeout")
            }
            if key is None and payload.get("dedupe"):
                key = job_idempotency_key(kind, body)
            job_id, deduped = store.enqueue(
                body,
                kind=kind,
                priority=priority,
                idempotency_key=key,
                max_attempts=max_attempts,
            )
        else:
            raise RequestError(f"unknown job kind {kind!r}")
        job = store.get(job_id)
        return {
            "ok": True,
            "id": job_id,
            "state": job.state if job is not None else "queued",
            "deduped": deduped,
        }, deduped

    def job_status(self, job_id: int) -> dict | None:
        store = self._require_store()
        job = store.get(job_id)
        if job is None:
            return None
        return {"ok": True, **job.to_dict()}

    def job_result(self, job_id: int) -> tuple[int, dict] | None:
        """``GET /jobs/{id}/result`` → (http status, body) or None (404)."""
        store = self._require_store()
        job = store.get(job_id)
        if job is None:
            return None
        if job.state == "done":
            body = job.result if isinstance(job.result, dict) else {"value": job.result}
            return 200, {**body, "id": job.id, "state": "done"}
        if job.state == "dead":
            return 200, {
                "ok": False,
                "id": job.id,
                "state": "dead",
                "error": job.error or "dead-lettered",
                "attempts": job.attempts,
            }
        return 202, {
            "ok": False,
            "pending": True,
            "id": job.id,
            "state": job.state,
            "attempts": job.attempts,
        }

    # -- batch ---------------------------------------------------------------

    def batch_request(self, payload: dict) -> dict:
        programs = payload.get("programs")
        if not isinstance(programs, dict) or not programs:
            raise RequestError('body must carry {"programs": {name: source, ...}}')
        options = payload.get("options")
        options_from_dict(options)  # validate once, up front
        if self.store is not None and self.pool is not None:
            return self._batch_via_queue(programs, payload)
        return self._batch_inline(programs, payload)

    def _batch_via_queue(self, programs: dict, payload: dict) -> dict:
        """Durable fan-out: one job per program, drained by the fleet."""
        store = self._require_store()
        self._check_backpressure(adding=len(programs))
        try:
            priority = int(payload.get("priority", 0))
        except (TypeError, ValueError) as exc:
            raise RequestError(f"bad priority: {exc}") from exc
        try:
            timeout = float(payload.get("timeout", self.batch_timeout))
        except (TypeError, ValueError) as exc:
            raise RequestError(f"bad timeout: {exc}") from exc
        names = list(programs)
        ids = []
        for name in names:
            job_id, _ = enqueue_analysis(
                store,
                programs[name],
                payload.get("options"),
                priority=priority,
                dedupe=bool(payload.get("dedupe", False)),
            )
            ids.append(job_id)
        started = time.perf_counter()
        jobs = wait_for_jobs(store, ids, timeout=timeout)
        items = []
        for name, job_id, job in zip(names, ids, jobs):
            if job is None or not job.terminal:
                items.append({
                    "name": name,
                    "ok": False,
                    "job_id": job_id,
                    "error": f"timeout: job still {job.state if job else 'missing'}"
                    f" after {timeout:g}s",
                })
            elif job.state == "done" and isinstance(job.result, dict):
                items.append({
                    "name": name,
                    "ok": True,
                    "job_id": job_id,
                    "summary": job.result.get("summary"),
                })
            else:
                items.append({
                    "name": name,
                    "ok": False,
                    "job_id": job_id,
                    "error": job.error or "dead-lettered",
                })
        return {
            "ok": all(item["ok"] for item in items),
            "queued": True,
            "jobs": self.pool.workers if self.pool is not None else 0,
            "elapsed_seconds": time.perf_counter() - started,
            "items": items,
        }

    def _batch_inline(self, programs: dict, payload: dict) -> dict:
        """No fleet: the original in-process batch executor."""
        options = options_from_dict(payload.get("options"))
        jobs = payload.get("jobs")
        try:
            jobs = int(jobs) if jobs is not None else None
        except (TypeError, ValueError) as exc:
            raise RequestError(f"jobs must be an integer: {exc}") from exc
        workload = {}
        for name, source in programs.items():
            try:
                workload[name] = parse_program(source)
            except ParseError as exc:
                raise RequestError(f"program {name!r} does not parse: {exc}") from exc
        report = run_batch(workload, options=options, jobs=jobs, cache=self.cache)
        return {
            "ok": report.ok,
            "queued": False,
            "jobs": report.jobs,
            "elapsed_seconds": report.elapsed,
            "items": [
                {
                    "name": item.name,
                    "ok": item.ok,
                    **(
                        {"summary": item.result.summary()}
                        if item.ok
                        else {"error": item.error}
                    ),
                }
                for item in report.items
            ],
        }

    # -- introspection -------------------------------------------------------

    def health(self) -> dict:
        out = {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": time.time() - self.started,
            "requests": self.requests,
            "warm_pipelines": len(self._pipelines),
            "queue": self.store is not None,
        }
        if self.store is not None:
            out["queue_depth"] = self.store.depth()
            try:
                from repro.soundness.campaign import campaign_metrics

                fuzz = campaign_metrics(self.store.path)
            except Exception:
                fuzz = None
            if fuzz is not None:
                out["fuzz_campaigns"] = {
                    "campaigns": fuzz["campaigns"],
                    "running": fuzz["running"],
                    "shards": fuzz["shards"],
                }
        if self.pool is not None:
            out["workers"] = {
                "configured": self.pool.workers,
                "alive": self.pool.alive(),
            }
        return out

    def cache_stats(self) -> dict:
        stats = {"enabled": self.cache is not None}
        if self.cache is not None:
            stats.update(self.cache.describe())
        stats["warm_pipelines"] = len(self._pipelines)
        return stats


class BackpressureError(RequestError):
    """Queue at the --max-queued limit; mapped to HTTP 429."""


class AnalysisHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, service: AnalysisService):
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a response goes out as a header send and a body send,
    #: and with Nagle's algorithm on, the body waits for the client's
    #: delayed ACK (~40 ms) on every request of a kept-alive connection.
    disable_nagle_algorithm = True

    @property
    def service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep request logging out of the analysis output

    def _send_json(
        self, code: int, payload: dict, extra_headers: "dict[str, str] | None" = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self._send_bytes(code, body, "application/json", extra_headers)

    def _send_bytes(
        self,
        code: int,
        body: bytes,
        content_type: str,
        extra_headers: "dict[str, str] | None" = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # The body's framing is unknown: answer, then drop the connection.
            self.close_connection = True
            raise RequestError("Content-Length must be an integer") from None
        if length <= 0:
            raise RequestError("empty request body")
        try:
            payload = json.loads(self.rfile.read(length))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        return payload

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:
        self.service.requests += 1
        path, _, query = self.path.partition("?")
        try:
            if path == "/health":
                self._send_json(200, self.service.health())
            elif path == "/cache/stats":
                self._send_json(200, self.service.cache_stats())
            elif path == "/metrics":
                self._send_metrics(query)
            elif path.startswith("/jobs/"):
                self._get_job(path)
            else:
                self._send_json(404, {"ok": False, "error": f"no route {path}"})
        except BackpressureError as exc:
            self._send_json(429, {"ok": False, "error": str(exc)})
        except RequestError as exc:
            self._send_json(400, {"ok": False, "error": str(exc)})

    def _send_metrics(self, query: str) -> None:
        accept = self.headers.get("Accept", "")
        want_prom = "format=prom" in query or (
            "text/plain" in accept and "application/json" not in accept
        )
        if want_prom:
            text = self.service.metrics.render_prometheus()
            self._send_bytes(
                200, text.encode(), "text/plain; version=0.0.4; charset=utf-8"
            )
        else:
            self._send_json(200, self.service.metrics.snapshot())

    def _get_job(self, path: str) -> None:
        match = _JOB_PATH.match(path)
        if not match:
            self._send_json(404, {"ok": False, "error": f"no route {path}"})
            return
        job_id = int(match.group(1))
        if match.group(2):  # /jobs/{id}/result
            answer = self.service.job_result(job_id)
            if answer is None:
                self._send_json(404, {"ok": False, "error": f"no job {job_id}"})
            else:
                self._send_json(answer[0], answer[1])
        else:
            status = self.service.job_status(job_id)
            if status is None:
                self._send_json(404, {"ok": False, "error": f"no job {job_id}"})
            else:
                self._send_json(200, status)

    def do_POST(self) -> None:
        self.service.requests += 1
        if self.path not in ("/analyze", "/check", "/batch", "/jobs"):
            self._send_json(404, {"ok": False, "error": f"no route {self.path}"})
            return
        try:
            payload = self._read_json()
            if self.path == "/analyze":
                answer, warm = self.service.analyze_request(payload)
                self._send_json(
                    200, answer, {"X-Repro-Warm": "true" if warm else "false"}
                )
            elif self.path == "/check":
                answer, warm = self.service.check_request(payload)
                self._send_json(
                    200, answer, {"X-Repro-Warm": "true" if warm else "false"}
                )
            elif self.path == "/jobs":
                answer, deduped = self.service.enqueue_request(payload)
                self._send_json(200 if deduped else 202, answer)
            else:
                self._send_json(200, self.service.batch_request(payload))
        except BackpressureError as exc:
            self._send_json(429, {"ok": False, "error": str(exc)})
        except RequestError as exc:
            self._send_json(400, {"ok": False, "error": str(exc)})
        except Exception as exc:  # analysis failures: the request was valid
            self._send_json(
                422, {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            )


def make_server(
    host: str = "127.0.0.1",
    port: int = 8000,
    cache: ArtifactCache | None = None,
    max_pipelines: int = 128,
    store: JobStore | None = None,
    pool: WorkerPool | None = None,
    max_queued: int | None = None,
    batch_timeout: float = 600.0,
) -> AnalysisHTTPServer:
    """Build (but do not start) the server; port 0 picks a free port."""
    service = AnalysisService(
        cache,
        max_pipelines,
        store=store,
        pool=pool,
        max_queued=max_queued,
        batch_timeout=batch_timeout,
    )
    return AnalysisHTTPServer((host, port), service)


def serve(
    host: str = "127.0.0.1",
    port: int = 8000,
    cache: ArtifactCache | None = None,
    max_pipelines: int = 128,
    db: "str | None" = None,
    workers: int = 0,
    visibility: float = 60.0,
    max_queued: int | None = None,
    job_timeout: "float | None" = None,
    out=None,
) -> int:
    """Run the server until SIGINT/SIGTERM (the ``repro serve`` entry point).

    With ``workers > 0`` (or an explicit ``db``) the durable queue is on:
    expired leases from a previous crashed run are recovered before the
    fleet starts, so queued work resumes exactly where it stopped.  On
    SIGTERM the fleet drains gracefully (in-flight jobs are finished and
    acked) before the process exits.

    ``job_timeout`` caps each job's heartbeat runtime (a job payload's
    ``timeout`` key overrides it): past the cap the lease stops being
    renewed, so a hung job is reclaimed and re-delivered instead of
    holding its lease until someone kills the worker.
    """
    store = pool = None
    if workers > 0 or db is not None:
        if db is None:
            from repro.service.cache import default_cache_dir

            db = str(default_cache_dir() / "jobs.sqlite3")
        store = JobStore(db, visibility=visibility)
        resumed = store.recover_expired()
        if out is not None and resumed:
            print(f"recovered {resumed} expired lease(s) from a previous run", file=out)
        if workers > 0:
            cache_dir = (
                str(cache.directory.parent)
                if cache is not None and cache.directory is not None
                else None
            )
            pool = WorkerPool(
                db, workers, cache_dir, visibility=visibility,
                job_timeout=job_timeout,
            ).start()
    server = make_server(
        host, port, cache, max_pipelines, store=store, pool=pool,
        max_queued=max_queued,
    )
    bound = server.server_address
    if out is not None:
        where = (
            cache.directory if cache is not None and cache.directory else "memory-only"
        )
        fleet = f", {workers} workers on {db}" if pool is not None else (
            f", queue on {db}" if store is not None else ""
        )
        print(
            f"repro serve listening on http://{bound[0]}:{bound[1]} "
            f"(cache: {where}{fleet})",
            file=out,
            flush=True,
        )

    stop = {"signal": None}

    def _on_signal(signum, frame):  # noqa: ARG001 - signal signature
        stop["signal"] = signum
        # shutdown() must not run on the serve_forever thread; we're in a
        # signal handler on the main thread, which *is* that thread, so
        # defer to a helper thread.
        import threading

        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _on_signal)
    except ValueError:
        pass  # not the main thread (tests drive serve() directly)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if pool is not None:
            # Graceful drain: each worker finishes + acks its job first.
            pool.stop(graceful=True)
        if store is not None:
            store.close()
        if out is not None:
            print("repro serve: shut down cleanly", file=out, flush=True)
    return 0


__all__ = [
    "AnalysisHTTPServer",
    "AnalysisService",
    "BackpressureError",
    "RequestError",
    "make_server",
    "options_from_dict",
    "serve",
]
