"""The worker fleet: processes that drain the durable job store.

A worker is a process running :func:`worker_main`: lease a job from the
:class:`~repro.service.store.JobStore`, run it through the analysis
pipeline (sharing the content-addressed :class:`ArtifactCache` with every
other worker and the server), and ack the JSON result — all state lives in
the store, so workers are stateless and disposable.

Robustness properties, each tested in ``tests/test_jobstore.py`` /
``tests/test_jobs.py``:

* **Error isolation.**  A job that raises marks *that job* failed (retried
  with backoff, dead-lettered when the budget is exhausted); the worker
  loop survives and moves on.
* **Heartbeats.**  A background thread extends the lease every
  ``visibility / 3`` seconds, so long Handelman solves don't outlive their
  lease; only a genuinely dead worker's lease expires.
* **Crash re-delivery.**  A SIGKILLed worker stops heartbeating; once the
  lease deadline passes, the next ``lease()`` call anywhere re-queues and
  re-delivers the job (store-level guarantee).
* **Graceful drain.**  SIGTERM sets a flag: the worker finishes and acks
  the job it holds, then exits — an acked result is committed to SQLite
  before the process dies, so graceful shutdown never loses work.

Job kinds:

* ``analyze`` — payload ``{"program": <appl source>, "options": {...}}``
  (the HTTP/CLI vocabulary of :func:`options_from_dict`); the result is
  the same document ``POST /analyze`` returns.
* ``fuzz_shard`` — one shard of a fuzzing campaign
  (:mod:`repro.soundness.campaign`): the payload is the shard's durable
  generation recipe; all campaign state commits to the store *before* the
  ack, so shard accounting is exactly-once across crashes.
* ``sleep`` — payload ``{"seconds": s}``: a deterministic-duration job for
  smoke tests and fleet diagnostics.  Any payload's ``timeout`` key caps
  the job's runtime (overriding the worker's ``--job-timeout`` default):
  past the cap the heartbeat stops extending the lease, so a hung job is
  reclaimed and re-delivered instead of holding its worker hostage.
* ``fail`` — payload ``{"message": m, "retryable": bool}``: always fails;
  exercises the retry/dead-letter path end to end.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import uuid

from repro.analysis.pipeline import AnalysisOptions, AnalysisPipeline
from repro.deadline import AnalysisTimeout
from repro.lang.parser import ParseError, parse_program
from repro.lang.varinfo import ValidationError
from repro.lp.core import LPInfeasibleError
from repro.service.cache import ArtifactCache, program_key
from repro.service.store import Job, JobStore

#: Job kinds the fleet knows how to run.
JOB_KINDS = ("analyze", "check", "fuzz_shard", "sleep", "fail")

_OPTION_KEYS = {
    "moments",
    "degree",
    "degree_cap",
    "at",
    "upper_only",
    "unit_cost",
    "lexicographic",
    "lp_bound",
    "check",
    "deadline",
    "degrade",
}

#: Substring of every :class:`~repro.deadline.AnalysisTimeout` message; a
#: redelivered job whose recorded error contains it already burned one
#: full-deadline attempt on a timeout (see :func:`effective_options`).
_TIMEOUT_MARKER = "analysis deadline exceeded"


class RequestError(ValueError):
    """Client-side problem: malformed body, unknown option, bad program.

    Deterministic — retrying cannot help, so jobs failing with this go
    straight to the dead-letter state (``retryable=False``).
    """


def _json_flag(
    data: dict, key: str, default: bool, prefix: str = "options."
) -> bool:
    """``data[key]`` as a JSON boolean; ``prefix`` names the enclosing
    object in the error (``""`` for a top-level request field)."""
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise RequestError(f"{prefix}{key} must be true or false, got {value!r}")
    return value


def _json_int(
    data: dict, key: str, default: "int | None", prefix: str = "options."
) -> "int | None":
    """``data[key]`` as a JSON integer (see :func:`_json_flag`)."""
    value = data.get(key, default)
    if value is None and default is None:
        return None
    # bool is an int subclass; a JSON true is not a degree.
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{prefix}{key} must be an integer, got {value!r}")
    return value


def options_from_dict(data: "dict | None") -> AnalysisOptions:
    """Build :class:`AnalysisOptions` from a request's ``options`` object.

    Mirrors the CLI flag mapping exactly (``at`` becomes a single objective
    valuation), so a served analysis and ``repro analyze`` construct the
    same cache key and return the same result.  Flags must be JSON
    booleans and degrees JSON integers: ``"false"`` or ``2.9`` is a
    :class:`RequestError`, not a silently coerced analysis.
    """
    data = data or {}
    if not isinstance(data, dict):
        raise RequestError("options must be an object")
    unknown = set(data) - _OPTION_KEYS
    if unknown:
        raise RequestError(
            f"unknown options {sorted(unknown)}; expected {sorted(_OPTION_KEYS)}"
        )
    try:
        at = data.get("at") or None
        if at is not None:
            # One valuation object, or a list of them (the registry's
            # multi-valuation benchmarks travel through the queue this way).
            if isinstance(at, dict):
                at = [at]
            if not isinstance(at, list) or not all(
                isinstance(v, dict) for v in at
            ):
                raise RequestError(
                    "options.at must be a {variable: value} object or a list"
                    " of them"
                )
            at = tuple(
                {str(k): float(v) for k, v in one.items()} for one in at
            )
        deadline = data.get("deadline")
        if deadline is not None:
            deadline = float(deadline)
            if deadline <= 0:
                raise RequestError("options.deadline must be positive seconds")
        return AnalysisOptions(
            moment_degree=_json_int(data, "moments", 2),
            template_degree=_json_int(data, "degree", 1),
            degree_cap=_json_int(data, "degree_cap", None),
            objective_valuations=at or None,
            upper_only=_json_flag(data, "upper_only", False),
            unit_cost=_json_flag(data, "unit_cost", False),
            check_soundness=_json_flag(data, "check", False),
            lexicographic=_json_flag(data, "lexicographic", True),
            lp_bound=float(data.get("lp_bound", 1e12)),
            deadline_seconds=deadline,
            degrade=_json_flag(data, "degrade", False),
        )
    except RequestError:
        raise
    except (TypeError, ValueError) as exc:
        raise RequestError(f"bad options: {exc}") from exc


def options_to_dict(options: AnalysisOptions) -> dict:
    """The inverse of :func:`options_from_dict`: the JSON ``options``
    object a job payload carries for these analysis options (defaults
    omitted)."""
    out: dict = {}
    if options.moment_degree != 2:
        out["moments"] = options.moment_degree
    if options.template_degree != 1:
        out["degree"] = options.template_degree
    if options.degree_cap is not None:
        out["degree_cap"] = options.degree_cap
    if options.objective_valuations:
        vals = [dict(v) for v in options.objective_valuations]
        out["at"] = vals[0] if len(vals) == 1 else vals
    if options.upper_only:
        out["upper_only"] = True
    if options.unit_cost:
        out["unit_cost"] = True
    if options.check_soundness:
        out["check"] = True
    if not options.lexicographic:
        out["lexicographic"] = False
    if options.lp_bound != 1e12:
        out["lp_bound"] = options.lp_bound
    if options.deadline_seconds is not None:
        out["deadline"] = options.deadline_seconds
    if options.degrade:
        out["degrade"] = True
    return out


def analyze_payload(source: str, options: "dict | None" = None) -> dict:
    """Validated ``analyze`` job payload (raises :class:`RequestError` on a
    bad program or options, so malformed jobs are rejected at enqueue time
    instead of dead-lettering in the fleet)."""
    if not isinstance(source, str) or not source.strip():
        raise RequestError('an analyze job needs {"program": "<appl source>"}')
    try:
        parse_program(source)
    except ParseError as exc:
        raise RequestError(f"program does not parse: {exc}") from exc
    options_from_dict(options)
    return {"program": source, "options": options or {}}


def check_payload(
    source: str, spec_text: str, options: "dict | None" = None
) -> dict:
    """Validated ``check`` job payload: an Appl program plus a policy spec
    (both parsed at enqueue time, like :func:`analyze_payload`)."""
    from repro.policy.parser import ParseError as SpecParseError
    from repro.policy.parser import parse_spec

    if not isinstance(source, str) or not source.strip():
        raise RequestError('a check job needs {"program": "<appl source>"}')
    try:
        parse_program(source)
    except ParseError as exc:
        raise RequestError(f"program does not parse: {exc}") from exc
    if not isinstance(spec_text, str) or not spec_text.strip():
        raise RequestError('a check job needs {"spec": "<assertions>"}')
    try:
        parse_spec(spec_text)
    except SpecParseError as exc:
        raise RequestError(f"spec does not parse: {exc}") from exc
    options_from_dict(options)
    return {"program": source, "spec": spec_text, "options": options or {}}


def check_options(spec, options_data: "dict | None") -> AnalysisOptions:
    """Analyzer options for a check: explicit request options win, the
    spec's directives fill the gaps (``@options`` / assertion-implied
    moment degree, ``@at`` valuation)."""
    from dataclasses import replace

    options = options_from_dict(options_data)
    data = options_data or {}
    if "moments" not in data:
        options = replace(options, moment_degree=spec.min_moment_degree())
    if "degree" not in data and "degree" in spec.options:
        options = replace(options, template_degree=spec.options["degree"])
    if "degree_cap" not in data and "cap" in spec.options:
        options = replace(options, degree_cap=spec.options["cap"])
    if "at" not in data and spec.valuation:
        options = replace(
            options, objective_valuations=(dict(spec.valuation),)
        )
    return options


def job_idempotency_key(kind: str, payload: dict) -> str:
    """Content-derived idempotency key: two enqueues of the same program at
    the same options dedupe to one job (the ``dedupe`` flag of ``POST
    /jobs``)."""
    import hashlib
    import json

    if kind == "analyze":
        body = program_key(parse_program(payload["program"]))
        opts = json.dumps(payload.get("options") or {}, sort_keys=True)
    elif kind == "check":
        body = program_key(parse_program(payload["program"]))
        opts = json.dumps(
            {"spec": payload.get("spec"), "options": payload.get("options") or {}},
            sort_keys=True,
        )
    else:
        body = json.dumps(payload, sort_keys=True)
        opts = ""
    return hashlib.sha256(f"{kind}|{body}|{opts}".encode()).hexdigest()


class JobFailure(Exception):
    """A job failed; ``retryable`` decides retry-with-backoff vs dead."""

    def __init__(self, message: str, *, retryable: bool = True) -> None:
        super().__init__(message)
        self.retryable = retryable


def _timed_out_before(job: Job) -> bool:
    """Did an earlier delivery of this job fail on its analysis deadline?"""
    return _TIMEOUT_MARKER in (job.error or "")


def effective_options(job: Job, options: AnalysisOptions) -> AnalysisOptions:
    """Apply the redelivery deadline ladder to a job's analysis options.

    A job redelivered after a deadline timeout runs its one retry at *half*
    the deadline: the first attempt proved the full budget insufficient, so
    the retry exists to catch transient slowness (cold caches, machine
    load), not to burn the same wall-clock again.  A second timeout
    dead-letters the job (see :func:`execute_job`)."""
    from dataclasses import replace

    if options.deadline_seconds is None or not _timed_out_before(job):
        return options
    return replace(options, deadline_seconds=options.deadline_seconds / 2.0)


def execute_job(
    job: Job,
    cache: ArtifactCache | None = None,
    db_path: "str | None" = None,
) -> dict:
    """Run one job to its JSON result document (raises on failure).

    ``analyze`` results are byte-compatible with ``POST /analyze``: the
    program's content hash, the CLI ``summary`` text, and the full
    ``result`` dict.  ``db_path`` is the store the job was leased from —
    ``fuzz_shard`` jobs write their campaign state back into it.
    """
    payload = job.payload if isinstance(job.payload, dict) else {}
    if job.kind == "fuzz_shard":
        from repro.soundness.campaign import execute_shard

        return execute_shard(job, cache, db_path=db_path)
    if job.kind == "analyze":
        try:
            program = parse_program(payload.get("program") or "")
        except ParseError as exc:
            raise JobFailure(
                f"program does not parse: {exc}", retryable=False
            ) from exc
        try:
            options = effective_options(job, options_from_dict(payload.get("options")))
        except RequestError as exc:
            raise JobFailure(str(exc), retryable=False) from exc
        pipeline = AnalysisPipeline(program, artifacts=cache)
        try:
            result = pipeline.analyze(options)
        except (ValidationError, LPInfeasibleError) as exc:
            # Deterministic analyzer verdicts: retrying cannot change them,
            # so the job dead-letters on the first delivery.
            raise JobFailure(
                f"{type(exc).__name__}: {exc}", retryable=False
            ) from exc
        except AnalysisTimeout as exc:
            # First timeout: retryable (the redelivery runs at half the
            # deadline, see effective_options).  Second: dead-letter.
            raise JobFailure(
                f"AnalysisTimeout: {exc}", retryable=not _timed_out_before(job)
            ) from exc
        return {
            "ok": True,
            "program": program_key(program),
            "summary": result.summary(),
            "result": result.to_dict(),
        }
    if job.kind == "check":
        from repro.policy.evaluate import evaluate_spec
        from repro.policy.parser import ParseError as SpecParseError
        from repro.policy.parser import parse_spec
        from repro.policy.report import check_to_dict
        from repro.tail.bounds import costs_nonnegative

        try:
            program = parse_program(payload.get("program") or "")
        except ParseError as exc:
            raise JobFailure(
                f"program does not parse: {exc}", retryable=False
            ) from exc
        try:
            spec = parse_spec(payload.get("spec") or "")
        except SpecParseError as exc:
            raise JobFailure(f"spec does not parse: {exc}", retryable=False) from exc
        try:
            options = effective_options(
                job, check_options(spec, payload.get("options"))
            )
        except RequestError as exc:
            raise JobFailure(str(exc), retryable=False) from exc
        pipeline = AnalysisPipeline(program, artifacts=cache)
        try:
            result = pipeline.analyze(options)
        except (ValidationError, LPInfeasibleError) as exc:
            raise JobFailure(
                f"{type(exc).__name__}: {exc}", retryable=False
            ) from exc
        except AnalysisTimeout as exc:
            raise JobFailure(
                f"AnalysisTimeout: {exc}", retryable=not _timed_out_before(job)
            ) from exc
        check = evaluate_spec(
            spec,
            result,
            program=program_key(program),
            nonnegative_cost=costs_nonnegative(program),
        )
        return {
            "ok": True,
            "program": program_key(program),
            "verdict": check.verdict,
            "check": check_to_dict(check),
        }
    if job.kind == "sleep":
        seconds = float(payload.get("seconds", 0.0))
        deadline = time.time() + seconds
        while time.time() < deadline:
            time.sleep(min(0.05, max(deadline - time.time(), 0.0)))
        return {"ok": True, "slept_seconds": seconds}
    if job.kind == "fail":
        raise JobFailure(
            str(payload.get("message", "synthetic failure")),
            retryable=bool(payload.get("retryable", True)),
        )
    raise JobFailure(f"unknown job kind {job.kind!r}", retryable=False)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


class _Heartbeat:
    """Extends the lease of the in-flight job every ``interval`` seconds.

    ``max_runtime`` caps how long the beats keep the job alive: a wedged
    job (infinite loop, stuck native call) used to heartbeat forever and
    hold its lease until the worker was killed by hand.  Past the cap the
    thread stops extending, the lease runs out, and the store re-delivers
    (or, after a nack budget, dead-letters) the job — the stuck *process*
    is still stuck, but the *job* is no longer hostage to it.
    """

    def __init__(
        self,
        store: JobStore,
        job_id: int,
        owner: str,
        visibility: float,
        max_runtime: "float | None" = None,
    ) -> None:
        self._store = store
        self._job_id = job_id
        self._owner = owner
        self._visibility = visibility
        self._cutoff = (
            None if max_runtime is None else time.monotonic() + max_runtime
        )
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        interval = max(self._visibility / 3.0, 0.05)
        while not self._stop.wait(interval):
            if self._cutoff is not None and time.monotonic() >= self._cutoff:
                return  # job outlived its runtime cap: let the lease expire
            try:
                if not self._store.extend_lease(
                    self._job_id, self._owner, visibility=self._visibility
                ):
                    return  # lease lost (expired + re-delivered): stop beating
            except Exception:
                pass  # transient DB contention; the next beat retries

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def worker_main(
    db_path: str,
    worker_id: int = 0,
    cache_dir: "str | None" = None,
    *,
    visibility: float = 60.0,
    poll: float = 0.2,
    max_jobs: "int | None" = None,
    job_timeout: "float | None" = None,
    wake=None,
) -> int:
    """Entry point of one fleet worker (runs in its own process).

    Loops lease → execute → ack/nack until SIGTERM (graceful: the in-flight
    job is finished and acked first) or, in-process, until it has executed
    ``max_jobs`` jobs.  An empty queue never ends the loop.  Returns the
    number of jobs executed.

    When a lease finds nothing, the worker waits up to ``poll`` seconds
    for a token on ``wake`` (the :class:`WorkerPool`'s semaphore, released
    once per job an enqueue in the fleet's own process adds) and then
    leases again.  The timed poll finds what no token announces: jobs
    enqueued by another process, backoff retries whose ``not_before`` has
    passed, and leases that expired when a worker died.  ``None`` waits on
    a private semaphore that nothing releases, i.e. for the poll alone.
    The wait runs in slices of at most 50 ms, so SIGTERM lands promptly.

    ``job_timeout`` is the default per-job runtime cap (seconds) past
    which the heartbeat stops renewing the lease; a job payload's
    ``timeout`` key overrides it per job.  ``None`` leaves uncapped jobs
    beating for as long as they run.
    """
    if wake is None:
        wake = threading.Semaphore(0)
    stop = {"flag": False}

    def _on_term(signum, frame):  # noqa: ARG001 - signal signature
        stop["flag"] = True

    try:
        signal.signal(signal.SIGTERM, _on_term)
        signal.signal(signal.SIGINT, _on_term)
    except ValueError:
        pass  # not the main thread (in-process tests): rely on max_jobs

    store = JobStore(db_path, visibility=visibility)
    cache = ArtifactCache(cache_dir) if cache_dir else None
    owner = f"{socket.gethostname()}:{os.getpid()}:{worker_id}:{uuid.uuid4().hex[:8]}"
    executed = 0
    try:
        while not stop["flag"]:
            try:
                job = store.lease(owner, visibility=visibility)
            except Exception:
                # DB contention storm: back off, the queue is still there.
                time.sleep(poll)
                continue
            if job is None:
                until = time.monotonic() + poll
                while not stop["flag"]:
                    left = until - time.monotonic()
                    if left <= 0 or wake.acquire(timeout=min(left, 0.05)):
                        break
                continue
            payload = job.payload if isinstance(job.payload, dict) else {}
            try:
                cap = float(payload["timeout"]) if "timeout" in payload else job_timeout
            except (TypeError, ValueError):
                cap = job_timeout
            beat = _Heartbeat(store, job.id, owner, visibility, max_runtime=cap)
            try:
                result = execute_job(job, cache, db_path=db_path)
            except JobFailure as exc:
                beat.stop()
                store.nack(job.id, owner, str(exc), retryable=exc.retryable)
            except Exception as exc:
                beat.stop()
                store.nack(job.id, owner, f"{type(exc).__name__}: {exc}")
            else:
                beat.stop()
                # The ack commits before the loop continues: a SIGTERM that
                # arrived mid-job exits *after* this point, so graceful
                # shutdown can never lose a finished result.
                store.ack(job.id, owner, result)
            executed += 1
            if max_jobs is not None and executed >= max_jobs:
                break
    finally:
        store.close()
    return executed


# ---------------------------------------------------------------------------
# The fleet
# ---------------------------------------------------------------------------


class WorkerPool:
    """``workers`` processes running :func:`worker_main` over one store.

    The fleet runs until :meth:`stop`, however empty the queue gets.  A
    maintenance thread watches it: a worker that dies (OOM, SIGKILL, bug)
    is respawned — its in-flight job is re-delivered by the store's lease
    expiry, so a crash costs one visibility timeout, not the job.
    ``stop()`` SIGTERMs every worker and waits for the graceful drain;
    stragglers are killed after ``timeout``.

    Every worker the pool forks, respawns included, shares one
    cross-process wake semaphore.  :meth:`wake` releases one token after
    an enqueue commits, so one idle worker leases the job at once instead
    of at its next ``poll``.  Tokens are capped at ``workers``: past the
    cap every worker already has a wake-up pending.
    """

    def __init__(
        self,
        db_path: "str | os.PathLike",
        workers: int = 2,
        cache_dir: "str | None" = None,
        *,
        visibility: float = 60.0,
        poll: float = 0.2,
        respawn: bool = True,
        job_timeout: "float | None" = None,
    ) -> None:
        import multiprocessing

        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._wake = multiprocessing.BoundedSemaphore(workers)
        for _ in range(workers):
            self._wake.acquire()
        self.db_path = str(db_path)
        self.workers = workers
        self.cache_dir = cache_dir
        self.visibility = visibility
        self.poll = poll
        self.job_timeout = job_timeout
        self.respawn = respawn
        self.respawned = 0
        self._procs: list = []
        self._stopping = False
        self._lock = threading.Lock()
        self._tender: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, worker_id: int):
        import multiprocessing

        # The pipeline imports its stage modules on a first cache miss;
        # load them here, so a forked worker starts with them loaded.
        from repro.analysis import transformer  # noqa: F401

        proc = multiprocessing.Process(
            target=worker_main,
            args=(self.db_path, worker_id, self.cache_dir),
            kwargs={
                "visibility": self.visibility,
                "poll": self.poll,
                "job_timeout": self.job_timeout,
                "wake": self._wake,
            },
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        proc.start()
        return proc

    def start(self) -> "WorkerPool":
        with self._lock:
            if self._procs:
                return self
            self._stopping = False
            self._procs = [self._spawn(i) for i in range(self.workers)]
        self._tender = threading.Thread(target=self._tend, daemon=True)
        self._tender.start()
        return self

    def _tend(self) -> None:
        while True:
            time.sleep(0.25)
            with self._lock:
                if self._stopping:
                    return
                for i, proc in enumerate(self._procs):
                    if not proc.is_alive() and self.respawn:
                        self._procs[i] = self._spawn(i)
                        self.respawned += 1

    def stop(self, *, graceful: bool = True, timeout: float = 30.0) -> None:
        with self._lock:
            self._stopping = True
            procs = list(self._procs)
            self._procs = []
        for proc in procs:
            if proc.is_alive():
                if graceful:
                    proc.terminate()  # SIGTERM: finish + ack the held job
                else:
                    proc.kill()
        deadline = time.time() + timeout
        for proc in procs:
            proc.join(timeout=max(deadline - time.time(), 0.1))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)

    def wake(self) -> None:
        """Wake one idle worker to lease a job whose enqueue has committed."""
        try:
            self._wake.release()
        except ValueError:
            pass  # at the cap: every worker already has a wake-up pending

    # -- introspection / fault injection ------------------------------------

    def alive(self) -> int:
        with self._lock:
            return sum(1 for proc in self._procs if proc.is_alive())

    def pids(self) -> list[int]:
        with self._lock:
            return [proc.pid for proc in self._procs if proc.is_alive()]

    def kill_worker(self, index: int = 0) -> "int | None":
        """SIGKILL one worker (crash-recovery tests); returns its pid."""
        with self._lock:
            alive = [proc for proc in self._procs if proc.is_alive()]
            if not alive:
                return None
            victim = alive[index % len(alive)]
        pid = victim.pid
        victim.kill()
        victim.join(timeout=5.0)
        return pid

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# Thin clients
# ---------------------------------------------------------------------------


def enqueue_analysis(
    store: JobStore,
    source: str,
    options: "dict | None" = None,
    *,
    priority: int = 0,
    idempotency_key: "str | None" = None,
    dedupe: bool = False,
    max_attempts: int = 3,
) -> tuple[int, bool]:
    """Validate + enqueue one analysis; returns ``(job_id, deduped)``.

    ``dedupe=True`` derives the idempotency key from the program's content
    hash and the canonical options, so identical work enqueued twice (by
    anyone) runs once.
    """
    payload = analyze_payload(source, options)
    key = idempotency_key
    if key is None and dedupe:
        key = job_idempotency_key("analyze", payload)
    return store.enqueue(
        payload,
        kind="analyze",
        priority=priority,
        idempotency_key=key,
        max_attempts=max_attempts,
    )


def wait_for_jobs(
    store: JobStore,
    ids: "list[int]",
    *,
    timeout: float = 300.0,
    poll: float = 0.05,
) -> "list[Job | None]":
    """Block until every id is terminal (done/dead) or ``timeout`` passes;
    returns the jobs in input order (callers inspect ``state``).

    The first pause between reads is 1 ms, and each pause doubles up to
    ``poll``: a short job is answered a few ms after its ack instead of up
    to ``poll`` later, and a long one is still read every ``poll``.
    """
    deadline = time.time() + timeout
    pause = min(0.001, poll)
    while True:
        jobs = store.iter_jobs(ids)
        if all(job is not None and job.terminal for job in jobs):
            return jobs
        if time.time() >= deadline:
            return jobs
        time.sleep(pause)
        pause = min(2 * pause, poll)


def job_outcome(job: "Job | None", timeout: float) -> "str | None":
    """How a batch reports one job :func:`wait_for_jobs` returned: ``None``
    when it is done with a result document, else the item's error — the
    job is still pending (or missing) after ``timeout`` seconds, or it is
    dead."""
    if job is None or not job.terminal:
        state = job.state if job is not None else "missing"
        return f"timeout: job still {state} after {timeout:g}s"
    if job.state == "done" and isinstance(job.result, dict):
        return None
    return job.error or "dead-lettered"


def drain_queue(
    store: JobStore, *, timeout: "float | None" = None, poll: float = 0.1
) -> bool:
    """Block until the queue has no queued/leased jobs; ``False`` on
    timeout."""
    deadline = None if timeout is None else time.time() + timeout
    while store.depth() > 0:
        if deadline is not None and time.time() >= deadline:
            return False
        time.sleep(poll)
    return True


__all__ = [
    "JOB_KINDS",
    "JobFailure",
    "RequestError",
    "WorkerPool",
    "analyze_payload",
    "check_options",
    "check_payload",
    "drain_queue",
    "effective_options",
    "enqueue_analysis",
    "execute_job",
    "job_idempotency_key",
    "job_outcome",
    "options_from_dict",
    "options_to_dict",
    "wait_for_jobs",
    "worker_main",
]
