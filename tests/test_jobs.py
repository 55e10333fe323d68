"""Worker fleet, queue-backed endpoints, metrics, and queue-mode batch.

Complements ``tests/test_jobstore.py`` (pure store properties) with the
layers above it: :mod:`repro.service.jobs` (worker processes, payload
validation), :mod:`repro.service.metrics`, the rewritten HTTP server, the
``queue`` batch executor, and the ``repro jobs`` / ``repro batch --quiet``
CLI surface.
"""

import io
import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.pipeline import AnalysisOptions
from repro.cli import run as cli_run
from repro.service.cache import ArtifactCache
from repro.service.executor import run_batch
from repro.policy.parser import parse_spec
from repro.service.jobs import (
    JobFailure,
    RequestError,
    WorkerPool,
    analyze_payload,
    check_options,
    check_payload,
    enqueue_analysis,
    execute_job,
    job_idempotency_key,
    options_from_dict,
    options_to_dict,
    wait_for_jobs,
    worker_main,
)
from repro.service.metrics import ServiceMetrics, percentile
from repro.service.server import make_server
from repro.service.store import JobStore

SIMPLE = """
func main() pre(d > 0) begin
  x := 0;
  while x < d inv(x < d + 1) do
    tick(1);
    x := x + 1
  od
end
"""

#: Parses fine, fails deterministically in the static stage.
BROKEN = """
func main() begin
  call missing
end
"""

FAST = {"moments": 1, "at": {"d": 4.0}}


@pytest.fixture()
def store(tmp_path):
    return JobStore(
        tmp_path / "jobs.sqlite3", visibility=5.0, retry_base=0.02, retry_cap=0.1
    )


# ---------------------------------------------------------------------------
# Payloads and options round-trip
# ---------------------------------------------------------------------------


class TestPayloads:
    def test_analyze_payload_validates_up_front(self):
        assert analyze_payload(SIMPLE, FAST)["options"] == FAST
        with pytest.raises(RequestError):
            analyze_payload("not appl at all", {})
        with pytest.raises(RequestError):
            analyze_payload(SIMPLE, {"bogus_option": 1})
        with pytest.raises(RequestError):
            analyze_payload("", {})

    def test_options_roundtrip(self):
        cases = [
            AnalysisOptions(),
            AnalysisOptions(moment_degree=4, template_degree=2, degree_cap=3),
            AnalysisOptions(
                objective_valuations=({"d": 10.0}, {"d": 2.0, "x": 1.0}),
                upper_only=True,
                unit_cost=True,
                lexicographic=False,
                lp_bound=1e9,
            ),
            AnalysisOptions(check_soundness=True, deadline_seconds=2.5, degrade=True),
        ]
        for options in cases:
            back = options_from_dict(options_to_dict(options))
            assert back == options, options

    def test_idempotency_key_is_content_derived(self):
        a = job_idempotency_key("analyze", analyze_payload(SIMPLE, FAST))
        # Whitespace-different program, same canonical content.
        b = job_idempotency_key(
            "analyze", analyze_payload("\n" + SIMPLE + "\n", dict(FAST))
        )
        c = job_idempotency_key("analyze", analyze_payload(SIMPLE, {"moments": 2}))
        assert a == b and a != c

    def test_check_payload_validates_up_front(self):
        payload = check_payload(SIMPLE, "E[cost] <= 10")
        assert payload["spec"] == "E[cost] <= 10"
        with pytest.raises(RequestError):
            check_payload("", "E[cost] <= 10")
        with pytest.raises(RequestError):
            check_payload("not appl at all", "E[cost] <= 10")
        with pytest.raises(RequestError):
            check_payload(SIMPLE, "")
        with pytest.raises(RequestError):
            check_payload(SIMPLE, "E[cost] <= <=")
        with pytest.raises(RequestError):
            check_payload(SIMPLE, "E[cost] <= 10", {"bogus_option": 1})

    def test_check_idempotency_key_is_spec_sensitive(self):
        a = job_idempotency_key("check", check_payload(SIMPLE, "E[cost] <= 10"))
        # Whitespace-different program, same canonical content + same spec.
        b = job_idempotency_key(
            "check", check_payload("\n" + SIMPLE + "\n", "E[cost] <= 10")
        )
        c = job_idempotency_key("check", check_payload(SIMPLE, "E[cost] <= 11"))
        d = job_idempotency_key(
            "check", check_payload(SIMPLE, "E[cost] <= 10", {"moments": 3})
        )
        assert a == b
        assert len({a, c, d}) == 3

    def test_check_options_spec_fills_gaps(self):
        spec = parse_spec("@at d=4, x=0\n@options moments=3\nE[cost] <= 10\n")
        options = check_options(spec, None)
        assert options.moment_degree == 3
        assert options.objective_valuations == ({"d": 4.0, "x": 0.0},)
        # Explicit request options win over spec directives.
        options = check_options(spec, {"moments": 1, "at": {"d": 9.0}})
        assert options.moment_degree == 1
        assert options.objective_valuations == ({"d": 9.0},)
        # Without @options, the assertion forms imply the degree.
        tail_spec = parse_spec("P(cost >= 100) <= 0.5")
        assert check_options(tail_spec, None).moment_degree == 2


class TestExecuteJob:
    def test_analyze_matches_pipeline(self, store):
        job_id, _ = enqueue_analysis(store, SIMPLE, FAST)
        job = store.lease("w")
        doc = execute_job(job)
        assert doc["ok"] and "E[C^1]" in doc["summary"]
        low, high = doc["result"]["evaluated"]["E[C^1]"]
        assert low <= 4.0 <= high

    def test_deterministic_failure_is_not_retryable(self, store):
        job_id, _ = store.enqueue(
            {"program": BROKEN, "options": {}}, kind="analyze"
        )
        job = store.lease("w")
        with pytest.raises(JobFailure) as failure:
            execute_job(job)
        assert not failure.value.retryable

    def test_check_job_round_trip(self, store):
        # The analyzer brackets E[C] in [d, d+1] for this loop shape.
        spec = "@at d=4, x=0\n@options moments=1\nE[cost] in [3.9, 5.1]\n"
        store.enqueue(check_payload(SIMPLE, spec), kind="check")
        job = store.lease("w")
        doc = execute_job(job)
        assert doc["ok"] and doc["verdict"] == "pass"
        assert [a["verdict"] for a in doc["check"]["assertions"]] == ["pass"]

    def test_check_job_static_failure_is_not_retryable(self, store):
        # Parses at enqueue time, fails deterministically in the static
        # stage — a dead letter, not a retry loop.
        store.enqueue(
            {"program": BROKEN, "spec": "E[cost] <= 1", "options": {}},
            kind="check",
        )
        job = store.lease("w")
        with pytest.raises(JobFailure) as failure:
            execute_job(job)
        assert not failure.value.retryable

    def test_unknown_kind_fails_dead(self, store):
        store.enqueue({}, kind="mystery")
        job = store.lease("w")
        with pytest.raises(JobFailure) as failure:
            execute_job(job)
        assert not failure.value.retryable


# ---------------------------------------------------------------------------
# The fleet
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_fleet_drains_a_mixed_enqueue(self, store, tmp_path):
        ids = [enqueue_analysis(store, SIMPLE, FAST)[0]]
        ids.append(store.enqueue({"seconds": 0.01}, kind="sleep")[0])
        ids.append(
            store.enqueue(
                {"message": "always", "retryable": True}, kind="fail",
                max_attempts=2,
            )[0]
        )
        with WorkerPool(
            store.path, 2, str(tmp_path / "cache"), visibility=5.0, poll=0.05
        ):
            jobs = wait_for_jobs(store, ids, timeout=90.0)
        assert [job.state for job in jobs] == ["done", "done", "dead"]
        assert jobs[2].attempts == 2 and jobs[2].error == "always"
        assert "E[C^1]" in jobs[0].result["summary"]

    def test_error_isolation_keeps_the_fleet_alive(self, store, tmp_path):
        """A dead-lettering job must not take its worker down with it."""
        bad = store.enqueue(
            {"message": "x", "retryable": False}, kind="fail"
        )[0]
        good = enqueue_analysis(store, SIMPLE, FAST)[0]
        with WorkerPool(store.path, 1, visibility=5.0, poll=0.05):
            jobs = wait_for_jobs(store, [bad, good], timeout=90.0)
        assert [job.state for job in jobs] == ["dead", "done"]

    def test_killed_worker_job_is_retried_and_respawned(self, store):
        """SIGKILL a worker mid-job: the lease expires, the respawned
        fleet re-delivers, and the job still completes."""
        fast_store = JobStore(store.path, visibility=0.4)
        job_id, _ = fast_store.enqueue({"seconds": 30.0}, kind="sleep")
        pool = WorkerPool(store.path, 1, visibility=0.4, poll=0.05)
        pool.start()
        try:
            deadline = time.time() + 15.0
            while (
                fast_store.get(job_id).state != "leased"
                and time.time() < deadline
            ):
                time.sleep(0.02)
            assert fast_store.get(job_id).state == "leased"
            assert pool.kill_worker() is not None
            # Make the re-delivered run short so the test stays fast: the
            # payload is immutable, so instead watch the retry happen and
            # then finish it ourselves as a stand-in successor worker.
            deadline = time.time() + 15.0
            successor = None
            while successor is None and time.time() < deadline:
                successor = fast_store.lease("successor")
                if successor is None:
                    time.sleep(0.05)
            # Beat the respawned worker to the lease often enough: either
            # way the job must have been re-delivered (attempts >= 2).
            job = fast_store.get(job_id)
            assert job.attempts >= 2 and job.retries >= 1
        finally:
            pool.stop(graceful=False, timeout=10.0)
        assert pool.respawned >= 1

    def test_drain_and_exit_fleet_outlives_backoff_retries(self, store):
        """Drain workers must not exit while a retry is parked in backoff."""
        job_id, _ = store.enqueue(
            {"message": "flaky", "retryable": True}, kind="fail",
            max_attempts=3,
        )
        pool = WorkerPool(
            store.path, 1, visibility=5.0, poll=0.05, drain_and_exit=True
        )
        pool.start()
        assert pool.join(timeout=60.0)
        job = store.get(job_id)
        assert job.state == "dead" and job.attempts == 3

    def test_worker_main_in_process_drain(self, store):
        ids = [store.enqueue({"seconds": 0.0}, kind="sleep")[0] for _ in range(3)]
        executed = worker_main(
            str(store.path), visibility=5.0, poll=0.05, drain_and_exit=True
        )
        assert executed == 3
        assert all(job.state == "done" for job in store.iter_jobs(ids))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_percentile_nearest_rank(self):
        sample = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(sample, 0.5) == 3.0
        assert percentile(sample, 0.99) == 5.0
        assert percentile([], 0.5) == 0.0

    def test_snapshot_fields(self, store, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        job = store.lease("w") if store.enqueue({"n": 1}) else None
        job = store.lease("w")
        store.enqueue({"n": 2})
        job = store.lease("w")
        store.ack(job.id, "w", {})
        snap = ServiceMetrics(store=store, cache=cache).snapshot()
        assert snap["queue"]["depth"] == 1
        assert snap["queue"]["states"]["done"] == 1
        assert snap["queue"]["enqueued_total"] == 2
        assert snap["latency"]["count"] == 1
        assert snap["latency"]["p50_seconds"] >= 0
        assert snap["latency"]["p99_seconds"] >= snap["latency"]["p50_seconds"]
        assert snap["cache"]["hit_rate"] == 0.0

    def test_prometheus_rendering(self, store):
        store.enqueue({"n": 1})
        text = ServiceMetrics(store=store).render_prometheus()
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 1" in text
        assert 'repro_jobs{state="queued"} 1' in text
        assert 'repro_analysis_latency_seconds{quantile="0.5"}' in text
        assert 'repro_analysis_latency_seconds{quantile="0.99"}' in text
        assert "repro_analysis_latency_seconds_count 0" in text
        assert text.endswith("\n")

    def test_degrades_without_store_or_cache(self):
        snap = ServiceMetrics().snapshot()
        assert snap["queue"] == {"enabled": False, "depth": 0, "states": {}}
        text = ServiceMetrics().render_prometheus()
        assert "repro_queue_depth 0" in text


# ---------------------------------------------------------------------------
# HTTP endpoints
# ---------------------------------------------------------------------------


def _post(server, path, body):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=json.dumps(body).encode()
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(server, path, headers=None):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


@pytest.fixture()
def queue_server(tmp_path):
    db = tmp_path / "jobs.sqlite3"
    store = JobStore(db, visibility=5.0, retry_base=0.02)
    cache_dir = tmp_path / "cache"
    pool = WorkerPool(db, 2, str(cache_dir), visibility=5.0, poll=0.05).start()
    server = make_server(
        port=0, cache=ArtifactCache(cache_dir), store=store, pool=pool,
        max_queued=50,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, store, pool
    server.shutdown()
    server.server_close()
    pool.stop(graceful=True, timeout=20.0)


class TestJobEndpoints:
    def test_enqueue_poll_result(self, queue_server):
        server, _store, _pool = queue_server
        status, body = _post(
            server, "/jobs", {"program": SIMPLE, "options": FAST}
        )
        assert status == 202 and body["ok"] and not body["deduped"]
        job_id = body["id"]
        status, raw = _get(server, f"/jobs/{job_id}")
        assert status == 200 and json.loads(raw)["state"] in (
            "queued", "leased", "done",
        )
        deadline = time.time() + 90.0
        while time.time() < deadline:
            status, raw = _get(server, f"/jobs/{job_id}/result")
            if status == 200:
                break
            assert status == 202
            time.sleep(0.05)
        doc = json.loads(raw)
        assert doc["state"] == "done" and "E[C^1]" in doc["summary"]

    def test_check_job_rides_the_queue(self, queue_server):
        server, _store, _pool = queue_server
        spec = "@at d=4, x=0\n@options moments=1\nE[cost] in [3.9, 5.1]\n"
        body = {"kind": "check", "program": SIMPLE, "spec": spec,
                "dedupe": True}
        status, first = _post(server, "/jobs", body)
        assert status == 202 and first["ok"]
        # Dedupe is spec-aware: the same program + spec maps to one job.
        status, second = _post(server, "/jobs", body)
        assert status == 200 and second["id"] == first["id"]
        assert second["deduped"]
        deadline = time.time() + 90.0
        while time.time() < deadline:
            status, raw = _get(server, f"/jobs/{first['id']}/result")
            if status == 200:
                break
            assert status == 202
            time.sleep(0.05)
        doc = json.loads(raw)
        assert doc["state"] == "done" and doc["verdict"] == "pass"
        assert [a["verdict"] for a in doc["check"]["assertions"]] == ["pass"]

    def test_dedupe_returns_the_same_job(self, queue_server):
        server, _store, _pool = queue_server
        body = {"program": SIMPLE, "options": FAST, "dedupe": True}
        _, first = _post(server, "/jobs", body)
        status, second = _post(server, "/jobs", body)
        assert second["id"] == first["id"] and second["deduped"]
        assert status == 200  # dedupe answers 200, fresh enqueue 202

    def test_dead_letter_result_is_structured(self, queue_server):
        server, _store, _pool = queue_server
        status, body = _post(
            server, "/jobs",
            {"kind": "fail", "message": "kaboom", "retryable": False},
        )
        assert status == 202
        deadline = time.time() + 30.0
        while time.time() < deadline:
            status, raw = _get(server, f"/jobs/{body['id']}/result")
            doc = json.loads(raw)
            if doc.get("state") == "dead":
                break
            time.sleep(0.05)
        assert doc["ok"] is False and doc["error"] == "kaboom"

    def test_unknown_job_404_and_bad_requests_400(self, queue_server):
        server, _store, _pool = queue_server
        status, _ = _get(server, "/jobs/99999")
        assert status == 404
        status, _ = _get(server, "/jobs/99999/result")
        assert status == 404
        status, body = _post(server, "/jobs", {"program": "not appl"})
        assert status == 400
        status, body = _post(server, "/jobs", {"kind": "mystery"})
        assert status == 400

    def test_batch_rides_the_queue(self, queue_server):
        server, store, _pool = queue_server
        status, body = _post(
            server, "/batch",
            {"programs": {"a": SIMPLE, "b": BROKEN}, "options": FAST},
        )
        assert status == 200
        assert body["queued"] is True and body["ok"] is False
        by_name = {item["name"]: item for item in body["items"]}
        assert by_name["a"]["ok"] and "job_id" in by_name["a"]
        assert not by_name["b"]["ok"] and "error" in by_name["b"]
        # The jobs are durable rows, not request-scoped state.
        assert store.get(by_name["a"]["job_id"]).state == "done"

    def test_metrics_json_and_prometheus(self, queue_server):
        server, _store, _pool = queue_server
        _post(server, "/jobs", {"program": SIMPLE, "options": FAST})
        status, raw = _get(server, "/metrics")
        snap = json.loads(raw)
        assert status == 200
        for key in ("queue", "latency", "cache", "workers", "service"):
            assert key in snap
        assert "depth" in snap["queue"]
        assert "p50_seconds" in snap["latency"] and "p99_seconds" in snap["latency"]
        assert snap["workers"]["configured"] == 2
        status, raw = _get(server, "/metrics?format=prometheus")
        assert status == 200 and b"repro_queue_depth" in raw
        status, raw = _get(server, "/metrics", headers={"Accept": "text/plain"})
        assert raw.startswith(b"# HELP")

    def test_backpressure_429(self, tmp_path):
        db = tmp_path / "bp.sqlite3"
        store = JobStore(db)
        server = make_server(port=0, store=store, max_queued=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            codes = [
                _post(server, "/jobs", {"kind": "sleep", "seconds": 60})[0]
                for _ in range(3)
            ]
            assert codes == [202, 202, 429]
        finally:
            server.shutdown()
            server.server_close()

    def test_unknown_backend_is_a_400(self, tmp_path):
        """``backend`` and ``lp_reduce`` are no longer options: like any
        unknown option they are a client error naming the key, rejected
        while the request is validated — not a 422 from the analysis, and
        not a job that burns its retries in a worker."""
        for option in ({"backend": "incremental"}, {"lp_reduce": True}):
            expected = re.escape(f"unknown options {list(option)}")
            with pytest.raises(RequestError, match=expected):
                analyze_payload(SIMPLE, option)
        server = make_server(port=0, store=JobStore(tmp_path / "jobs.sqlite3"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            for option in ({"backend": "incremental"}, {"lp_reduce": False}):
                body = {"program": SIMPLE, "options": option}
                for path in ("/analyze", "/jobs"):
                    status, doc = _post(server, path, body)
                    assert status == 400, (path, doc)
                    assert f"unknown options {list(option)}" in doc["error"]
        finally:
            server.shutdown()
            server.server_close()

    def test_jobs_require_a_store(self, tmp_path):
        server = make_server(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, body = _post(server, "/jobs", {"program": SIMPLE})
            assert status == 400 and "without a job store" in body["error"]
            status, raw = _get(server, "/metrics")
            assert status == 200  # metrics still served, queue disabled
            assert json.loads(raw)["queue"]["enabled"] is False
        finally:
            server.shutdown()
            server.server_close()


# ---------------------------------------------------------------------------
# Queue-mode batch executor
# ---------------------------------------------------------------------------


class TestQueueBatch:
    def test_matches_thread_executor(self, tmp_path):
        from repro import parse_program

        programs = {"simple": parse_program(SIMPLE)}
        options = AnalysisOptions(
            moment_degree=1, objective_valuations=({"d": 4.0},)
        )
        threaded = run_batch(programs, options=options, executor="thread")
        queued = run_batch(
            programs, options=options, executor="queue", jobs=1,
            cache=ArtifactCache(tmp_path / "cache"),
        )
        assert queued.ok and threaded.ok
        item = queued.items[0]
        assert item.job_id is not None and item.result is None
        bounds = lambda text: [  # noqa: E731 -- summaries embed timings
            line for line in text.splitlines() if " in [" in line
        ]
        assert bounds(item.summary) == bounds(threaded.items[0].summary)
        low, high = item.payload["result"]["evaluated"]["E[C^1]"]
        assert low <= 4.0 <= high

    def test_structured_failures_are_items_not_exceptions(self, tmp_path):
        from repro import parse_program

        programs = {
            "ok": parse_program(SIMPLE),
            "broken": parse_program(BROKEN),
        }
        options = AnalysisOptions(
            moment_degree=1, objective_valuations=({"d": 4.0},)
        )
        report = run_batch(
            programs, options=options, executor="queue", jobs=1, timeout=120.0
        )
        assert not report.ok
        by_name = {item.name: item for item in report.items}
        assert by_name["ok"].ok
        failed = by_name["broken"]
        assert not failed.ok and failed.error and "ValidationError" in failed.error

    def test_external_store_is_shared(self, tmp_path):
        from repro import parse_program

        db = tmp_path / "shared.sqlite3"
        store = JobStore(db, visibility=5.0)
        pool = WorkerPool(db, 1, visibility=5.0, poll=0.05).start()
        try:
            report = run_batch(
                {"simple": parse_program(SIMPLE)},
                options=AnalysisOptions(
                    moment_degree=1, objective_valuations=({"d": 4.0},)
                ),
                executor="queue",
                store=store,
                timeout=90.0,
            )
            assert report.ok
            # The job is visible in the shared store afterwards: durable.
            job = store.get(report.items[0].job_id)
            assert job is not None and job.state == "done"
        finally:
            pool.stop(graceful=True, timeout=20.0)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "simple.appl"
    path.write_text(SIMPLE)
    return str(path)


class TestJobsCli:
    def test_enqueue_status_drain(self, source_file, tmp_path):
        db = str(tmp_path / "jobs.sqlite3")
        out = io.StringIO()
        code = cli_run(
            ["jobs", "enqueue", source_file, "--db", db, "--moments", "1",
             "--at", "d=4", "--dedupe"],
            out=out,
        )
        assert code == 0 and "job 1 enqueued" in out.getvalue()

        out = io.StringIO()
        code = cli_run(
            ["jobs", "enqueue", source_file, "--db", db, "--moments", "1",
             "--at", "d=4", "--dedupe"],
            out=out,
        )
        assert code == 0 and "deduped" in out.getvalue()

        out = io.StringIO()
        assert cli_run(["jobs", "status", "--db", db, "--json"], out=out) == 0
        status = json.loads(out.getvalue())
        assert status["depth"] == 1 and status["states"]["queued"] == 1

        out = io.StringIO()
        code = cli_run(
            ["jobs", "drain", "--db", db, "--workers", "1"], out=out
        )
        assert code == 0 and "1 done" in out.getvalue()

        out = io.StringIO()
        assert cli_run(["jobs", "status", "1", "--db", db], out=out) == 0
        assert "state: done" in out.getvalue()

        out = io.StringIO()
        assert cli_run(["jobs", "drain", "--db", db], out=out) == 0
        assert "queue already empty" in out.getvalue()

    def test_enqueue_wait_prints_summary(self, source_file, tmp_path):
        db = str(tmp_path / "jobs.sqlite3")
        out = io.StringIO()
        enqueue = threading.Thread(
            target=lambda: cli_run(
                ["jobs", "drain", "--db", db, "--workers", "1", "--timeout",
                 "60"],
                out=io.StringIO(),
            ),
        )
        code = cli_run(
            ["jobs", "enqueue", source_file, "--db", db, "--moments", "1",
             "--at", "d=4"],
            out=out,
        )
        assert code == 0
        enqueue.start()
        enqueue.join(timeout=90.0)
        out = io.StringIO()
        assert cli_run(["jobs", "status", "1", "--db", db, "--json"], out=out) == 0
        assert json.loads(out.getvalue())["state"] == "done"

    def test_status_unknown_job_exits_nonzero(self, tmp_path):
        db = str(tmp_path / "jobs.sqlite3")
        JobStore(db)  # create the schema
        out = io.StringIO()
        assert cli_run(["jobs", "status", "7", "--db", db], out=out) == 1


class TestBatchQuiet:
    def test_quiet_still_surfaces_structured_failures(self, monkeypatch):
        """--quiet hides success rows but a structured per-program failure
        must still print its error and flip the exit code (the bug was
        that error payloads were indistinguishable from success)."""
        from repro.programs import registry

        real = dict(registry.all_benchmarks())
        first_name = sorted(real)[0]
        bench = real[first_name]

        class _Bench:
            moment_degree = 1
            template_degree = 1
            degree_cap = None
            valuation = dict(bench.valuation)
            extra_valuations = ()

        monkeypatch.setattr(
            registry, "all_benchmarks", lambda: {"doomed": _Bench()}
        )
        monkeypatch.setattr(
            registry,
            "parsed",
            lambda name: __import__("repro").parse_program(BROKEN),
        )
        out = io.StringIO()
        code = cli_run(["batch", "--quiet"], out=out)
        text = out.getvalue()
        assert code == 1
        assert "doomed" in text and "FAILED" in text
        assert "ValidationError" in text
        assert "1 failed" in text

    def test_quiet_suppresses_success_rows(self, monkeypatch):
        out_full, out_quiet = io.StringIO(), io.StringIO()
        assert cli_run(["batch", "--prefix", "rdwalk-var1"], out=out_full) == 0
        assert (
            cli_run(["batch", "--prefix", "rdwalk-var1", "--quiet"], out=out_quiet)
            == 0
        )
        assert "rdwalk-var1" in out_full.getvalue()
        assert "E[C] interval" not in out_quiet.getvalue()
        assert "1 programs" in out_quiet.getvalue()

    def test_queue_executor_cli_parity(self, monkeypatch):
        out_thread, out_queue = io.StringIO(), io.StringIO()
        assert (
            cli_run(["batch", "--prefix", "rdwalk-var1"], out=out_thread) == 0
        )
        assert (
            cli_run(
                ["batch", "--prefix", "rdwalk-var1", "--executor", "queue",
                 "--jobs", "1"],
                out=out_queue,
            )
            == 0
        )
        row = lambda text: next(  # noqa: E731
            line for line in text.splitlines() if line.startswith("rdwalk-var1")
        )
        # Same bounds columns; timings differ, so compare up to LP vars.
        assert row(out_thread.getvalue())[:55] == row(out_queue.getvalue())[:55]
