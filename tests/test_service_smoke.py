"""End-to-end service smoke: a real ``repro serve`` process under fire.

Two tiers:

* ``TestInProcessSmoke`` runs in tier-1: a small mixed workload through a
  real HTTP server + worker fleet inside this process, fast enough for the
  default test run.
* ``TestServiceSmoke`` (``@pytest.mark.smoke``, gated behind
  ``REPRO_SERVICE_SMOKE=1``) is the CI ``service-smoke`` drill: boot
  ``python -m repro serve`` as a subprocess on a temp DB, enqueue a
  200-job mix over HTTP, SIGKILL a worker mid-job and assert the lease is
  retried, SIGTERM the server mid-queue and restart it asserting queued
  jobs resume, and scrape ``/metrics`` asserting depth, latency and
  queue-wait keys.  Zero jobs may be lost.  Its concurrency drill runs
  ``repro serve`` without a fleet: concurrent ``/analyze`` and inline
  ``/batch`` clients share constraint systems through the server's
  artifact cache and must get the answers a single client gets.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.programs import registry
from repro.service.cache import ArtifactCache
from repro.service.jobs import WorkerPool, options_to_dict
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

#: Policy spec matching SIMPLE at d=4 (the analyzer brackets E[C] in
#: [d, d+1] for this loop shape), exercised over ``POST /check``.
SPEC = """
@at d=4, x=0
@options moments=1
E[cost] in [3.9, 5.1]
"""

SMOKE = os.environ.get("REPRO_SERVICE_SMOKE") == "1"
CHAOS = os.environ.get("REPRO_SERVICE_CHAOS") == "1"

#: The 200-job drill ends with this many sleeps of LONG_SLEEP_SECONDS:
#: twice its 4 workers, and longer than the drill waits before SIGTERM.
LONG_SLEEPS = 8
LONG_SLEEP_SECONDS = 3.0

#: The chaos drill's armed faults: every disk-cache write is corrupted
#: (discarded and recomputed on the next read) and a quarter of cache
#: reads fail outright.  Both are recoverable by design — the drill
#: asserts the service keeps answering correctly *and* that the faults
#: actually fired.
CHAOS_FAULTS = "cache.read:raise:0.25:7,cache.write:corrupt:1:8"


def _post(port, path, body, timeout=30.0):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=json.dumps(body).encode()
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _post_any(port, path, body, timeout=120.0):
    """(HTTP status, JSON body), error statuses included."""
    try:
        return 200, _post(port, path, body, timeout=timeout)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _without_timings(doc):
    """``doc`` minus every ``*_seconds`` field and the solve time that a
    result summary prints in its first line."""
    if isinstance(doc, dict):
        return {
            key: _without_timings(value)
            for key, value in doc.items()
            if not key.endswith("_seconds")
        }
    if isinstance(doc, (list, tuple)):
        return [_without_timings(value) for value in doc]
    if isinstance(doc, str):
        return re.sub(r", \d+\.\d+s\)", ")", doc)
    return doc


def _get(port, path, timeout=30.0):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as response:
        return response.status, response.read()


# ---------------------------------------------------------------------------
# Tier-1: in-process smoke
# ---------------------------------------------------------------------------


class TestInProcessSmoke:
    def test_mixed_workload_end_to_end(self, tmp_path):
        db = tmp_path / "jobs.sqlite3"
        store = JobStore(db, visibility=5.0, retry_base=0.02, retry_cap=0.1)
        pool = WorkerPool(
            db, 2, str(tmp_path / "cache"), visibility=5.0, poll=0.05
        ).start()
        server = make_server(
            port=0, cache=ArtifactCache(tmp_path / "cache"), store=store,
            pool=pool,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            ids = []
            for i in range(12):
                if i % 6 == 0:
                    body = {
                        "program": SIMPLE,
                        "options": {"moments": 1, "at": {"d": 4.0}},
                        "dedupe": True,
                    }
                elif i % 6 == 1:
                    body = {"kind": "fail", "message": "boom",
                            "retryable": False}
                else:
                    body = {"kind": "sleep", "seconds": 0.01}
                ids.append(_post(port, "/jobs", body)["id"])

            deadline = time.time() + 120.0
            while time.time() < deadline:
                if all(
                    job is not None and job.terminal
                    for job in store.iter_jobs(set(ids))
                ):
                    break
                time.sleep(0.05)
            jobs = {job.id: job for job in store.iter_jobs(set(ids))}
            # Zero lost jobs: every id answers, every job is terminal.
            assert all(jobs[i].terminal for i in ids)
            assert {jobs[i].state for i in ids} == {"done", "dead"}
            assert all(jobs[i].state == "dead" for i in ids[1::6])
            # The two analyze enqueues deduped onto one job.
            assert ids[0] == ids[6]

            # Inline policy check rides the same warm-pipeline path.
            verdict = _post(port, "/check", {"program": SIMPLE, "spec": SPEC})
            assert verdict["ok"] and verdict["verdict"] == "pass"

            _, raw = _get(port, "/metrics")
            snap = json.loads(raw)
            assert snap["queue"]["depth"] == 0
            assert snap["latency"]["count"] >= 1
            assert snap["latency"]["p99_seconds"] >= snap["latency"]["p50_seconds"]
        finally:
            server.shutdown()
            server.server_close()
            pool.stop(graceful=True, timeout=20.0)


# ---------------------------------------------------------------------------
# CI drill: subprocess smoke (REPRO_SERVICE_SMOKE=1)
# ---------------------------------------------------------------------------


_BOOTS = iter(range(1, 1000))


def _boot_serve(
    db, cache_dir, workers=4, visibility=2.0, job_timeout=None, env_extra=None
):
    """Start ``repro serve`` on an ephemeral port, return (proc, port).

    ``db=None`` starts it without a job store or fleet, so ``/batch``
    runs inline in its handler thread.

    With ``REPRO_SERVICE_LOG_DIR`` set (the CI smoke leg does), all server
    output is mirrored to ``serve-<n>.log`` there so failures upload the
    full transcript as an artifact.  ``env_extra`` entries (the chaos
    drill's ``REPRO_FAULTS``) are injected into the subprocess
    environment; ``job_timeout`` forwards ``--job-timeout``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONUNBUFFERED"] = "1"
    if env_extra:
        env.update(env_extra)
    log_dir = os.environ.get("REPRO_SERVICE_LOG_DIR")
    log = None
    if log_dir:
        Path(log_dir).mkdir(parents=True, exist_ok=True)
        log = open(
            Path(log_dir) / f"serve-{next(_BOOTS)}.log", "w", buffering=1
        )
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--cache-dir", str(cache_dir),
    ]
    if db is not None:
        argv += [
            "--db", str(db),
            "--workers", str(workers),
            "--visibility", str(visibility),
        ]
    if job_timeout is not None:
        argv += ["--job-timeout", str(job_timeout)]
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    port = None
    deadline = time.time() + 60.0
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if log is not None:
            log.write(line)
        if "listening on http://" in line:
            port = int(line.split("listening on http://")[1]
                       .split()[0].rsplit(":", 1)[1])
            break
    if port is None:
        proc.kill()
        raise RuntimeError("repro serve did not announce a port")

    # Drain remaining output in the background so the pipe never fills.
    sink = []

    def _drain():
        for line in proc.stdout:
            sink.append(line)
            if log is not None:
                log.write(line)
        if log is not None:
            log.close()

    threading.Thread(target=_drain, daemon=True).start()
    return proc, port, sink


def _worker_pids(server_pid):
    """Direct children of the serve process (the worker fleet)."""
    out = subprocess.run(
        ["ps", "-o", "pid=", "--ppid", str(server_pid)],
        capture_output=True, text=True,
    ).stdout
    return [int(token) for token in out.split()]


def _leasing_worker(db, ids, workers, timeout=30.0):
    """The pid of a fleet worker that holds a lease on one of ``ids``.

    A lease owner is ``host:pid:worker:nonce``; killing that pid is what
    leaves a lease to retry (an idle worker's death leaves nothing).
    """
    store = JobStore(db)
    try:
        deadline = time.time() + timeout
        while time.time() < deadline:
            for job in store.iter_jobs(ids):
                if job is None or job.state != "leased" or not job.lease_owner:
                    continue
                pid = int(job.lease_owner.rsplit(":", 3)[1])
                if pid in workers:
                    return pid
            time.sleep(0.05)
    finally:
        store.close()
    raise AssertionError("no fleet worker holds a lease to kill")


@pytest.mark.smoke
@pytest.mark.skipif(not SMOKE, reason="set REPRO_SERVICE_SMOKE=1 to run")
class TestServiceSmoke:
    def test_two_hundred_job_drill(self, tmp_path):
        db = tmp_path / "jobs.sqlite3"
        cache_dir = tmp_path / "cache"
        proc, port, _sink = _boot_serve(db, cache_dir)
        ids, analyze_ids, fail_ids = [], [], []
        try:
            # 1. Enqueue a 200-job mix over HTTP: mostly short sleeps with
            #    real analyses and bounded-retry failures sprinkled in.  The
            #    mix ends with more multi-second sleeps than there are
            #    workers, so jobs are still queued at the SIGTERM below
            #    however fast the host drains the short ones.
            for i in range(200):
                if i >= 200 - LONG_SLEEPS:
                    body = {"kind": "sleep", "seconds": LONG_SLEEP_SECONDS}
                elif i % 40 == 0:
                    body = {
                        "program": SIMPLE,
                        "options": {"moments": 1, "at": {"d": 4.0 + i}},
                    }
                elif i % 40 == 1:
                    body = {"kind": "fail", "message": "flaky",
                            "retryable": True, "max_attempts": 2}
                else:
                    body = {"kind": "sleep", "seconds": 0.02}
                response = _post(port, "/jobs", body)
                assert response["ok"]
                ids.append(response["id"])
                if i % 40 == 0:
                    analyze_ids.append(response["id"])
                elif i % 40 == 1:
                    fail_ids.append(response["id"])
            assert len(ids) == len(set(ids)) == 200

            # 1b. POST /check round trip: an inline policy check against
            #     the live server, while the queue is under load.
            verdict = _post(port, "/check",
                            {"program": SIMPLE, "spec": SPEC})
            assert verdict["ok"] and verdict["verdict"] == "pass"
            counts = verdict["check"]["counts"]
            assert counts["pass"] == 1 and counts["fail"] == 0

            # 2. SIGKILL one worker mid-job: its lease must be retried,
            #    not lost, and the pool must respawn a replacement.
            time.sleep(0.5)
            victims = _worker_pids(proc.pid)
            assert victims, "no worker processes found under repro serve"
            os.kill(_leasing_worker(db, ids, victims), signal.SIGKILL)

            # 3. SIGTERM the server mid-queue: graceful drain of in-flight
            #    jobs, everything else stays queued in the DB.
            time.sleep(1.0)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120.0) == 0
        except BaseException:
            proc.kill()
            raise

        store = JobStore(db)
        remaining = sum(
            1 for job in store.iter_jobs(ids)
            if job is not None and not job.terminal
        )
        print(f"drill: remaining={remaining} jobs non-terminal at SIGTERM")
        assert remaining > 0, "drill finished before the restart could matter"
        store.close()

        # 4. Restart: queued jobs must resume without re-enqueueing.
        proc, port, _sink = _boot_serve(db, cache_dir)
        try:
            deadline = time.time() + 420.0
            store = JobStore(db)
            while time.time() < deadline:
                jobs = list(store.iter_jobs(ids))
                if all(job is not None and job.terminal for job in jobs):
                    break
                time.sleep(0.25)
            jobs = {job.id: job for job in store.iter_jobs(ids) if job}

            # 5. Zero lost jobs: all 200 accounted for and terminal.
            assert len(jobs) == 200
            assert all(job.terminal for job in jobs.values())
            for job_id in analyze_ids:
                assert jobs[job_id].state == "done"
                assert "E[C^1]" in jobs[job_id].result["summary"]
            for job_id in fail_ids:
                assert jobs[job_id].state == "dead"
                assert jobs[job_id].attempts == 2
            # The SIGKILLed worker's lease was re-delivered: at least one
            # non-"fail" job ran more than once.
            assert any(
                jobs[i].retries >= 1 for i in ids
                if i not in fail_ids
            ), "no lease retry observed after SIGKILL"

            # 6. Scrape /metrics: depth gauge, latency and queue-wait
            # quantiles.
            _, raw = _get(port, "/metrics")
            snap = json.loads(raw)
            assert snap["queue"]["depth"] == 0
            assert snap["queue"]["states"].get("done", 0) >= 195
            assert snap["latency"]["count"] >= 1
            for key in ("p50_seconds", "p99_seconds", "mean_seconds"):
                assert key in snap["latency"]
            wait = snap["queue_wait"]
            assert wait["count"] >= 1
            assert wait["p99_seconds"] >= wait["p50_seconds"]
            _, raw = _get(port, "/metrics?format=prometheus")
            text = raw.decode()
            assert "repro_queue_depth 0" in text
            assert 'repro_analysis_latency_seconds{quantile="0.99"}' in text
            assert 'repro_queue_wait_seconds{quantile="0.99"}' in text
            store.close()

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120.0) == 0
        except BaseException:
            proc.kill()
            raise


    def test_concurrent_clients_get_single_client_answers(self, tmp_path):
        """Four clients POST ``/analyze`` for the registry programs while a
        fifth POSTs them as one ``/batch``, on a server with its artifact
        cache and no fleet: the inline batch's pipelines and the warm
        ``/analyze`` pipelines solve the same constraint systems.  Every
        answer equals a single client's answer from a fresh server, in
        each of 5 rounds."""
        from concurrent.futures import ThreadPoolExecutor

        benches = sorted(registry.all_benchmarks().items())
        names = [name for name, _ in benches]
        analyze_bodies = {
            name: {
                "program": bench.source,
                "options": options_to_dict(bench.options()),
            }
            for name, bench in benches
        }
        batch_body = {"programs": {name: bench.source for name, bench in benches}}

        def client(port, offset):
            order = names[offset:] + names[:offset]
            return {
                name: _without_timings(
                    _post_any(port, "/analyze", analyze_bodies[name])
                )
                for name in order
            }

        def batch(port):
            return _without_timings(_post_any(port, "/batch", batch_body))

        def on_fresh_server(directory, work):
            proc, port, _sink = _boot_serve(None, directory / "cache")
            try:
                answers = work(port)
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=60.0) == 0
            except BaseException:
                proc.kill()
                raise
            return answers

        def one_client(port):
            return client(port, 0), batch(port)

        def five_clients(port):
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=5) as pool:
                batched = pool.submit(batch, port)
                analyses = [
                    pool.submit(client, port, i * len(names) // 4) for i in range(4)
                ]
                answers = [f.result() for f in analyses], batched.result()
            print(f"drill: round took {time.perf_counter() - started:.2f}s")
            return answers

        expected, expected_batch = on_fresh_server(tmp_path / "reference", one_client)
        assert all(status == 200 for status, _ in expected.values())
        assert expected_batch[0] == 200
        for round_no in range(5):
            analyses, batched = on_fresh_server(tmp_path / f"round{round_no}", five_clients)
            for got in analyses:
                moved = [name for name in names if got[name] != expected[name]]
                assert not moved, f"round {round_no}: /analyze moved {moved}"
            assert batched == expected_batch, f"round {round_no}: /batch moved"


# ---------------------------------------------------------------------------
# CI drill: chaos leg (REPRO_SERVICE_CHAOS=1)
# ---------------------------------------------------------------------------


@pytest.mark.smoke
@pytest.mark.skipif(not CHAOS, reason="set REPRO_SERVICE_CHAOS=1 to run")
class TestServiceChaos:
    """Armed faults + a hung job against a real ``repro serve`` process.

    The drill demonstrates the full degradation ladder the resilience
    layer promises:

    * cache I/O faults (corrupt writes, failing reads) degrade the cache
      to recompute — analyses still answer correctly;
    * an analyze job with a tiny deadline times out, is re-delivered once
      at *half* the deadline, times out again, and dead-letters;
    * a hung job whose payload ``timeout`` undercuts its runtime loses
      its lease (the heartbeat stops extending), is reclaimed, and
      dead-letters after its attempt budget — no SIGKILL involved;
    * ``/metrics`` reports it all: timeout counters, armed faults, and
      fired-fault counts.
    """

    def test_chaos_drill(self, tmp_path):
        db = tmp_path / "jobs.sqlite3"
        cache_dir = tmp_path / "cache"
        proc, port, _sink = _boot_serve(
            db, cache_dir, workers=2, visibility=1.0, job_timeout=1.0,
            env_extra={"REPRO_FAULTS": CHAOS_FAULTS},
        )
        try:
            # 1. Real analyses through the faulted cache: corrupt disk
            #    writes and failing reads must degrade to recompute, never
            #    to wrong answers.
            analyze_ids = []
            for i in range(6):
                response = _post(port, "/jobs", {
                    "program": SIMPLE,
                    "options": {"moments": 1, "at": {"d": 4.0 + i}},
                })
                assert response["ok"]
                analyze_ids.append(response["id"])

            # 2. A deadline-doomed analyze job: the first delivery times
            #    out, the retry runs at half the deadline and times out
            #    again, and the job dead-letters.
            response = _post(port, "/jobs", {
                "program": SIMPLE,
                "options": {"moments": 4, "deadline": 0.001},
            })
            doomed_id = response["id"]

            store = JobStore(db)
            deadline = time.time() + 180.0
            watched = analyze_ids + [doomed_id]
            while time.time() < deadline:
                jobs = list(store.iter_jobs(watched))
                if all(job is not None and job.terminal for job in jobs):
                    break
                time.sleep(0.1)
            jobs = {job.id: job for job in store.iter_jobs(watched) if job}
            for job_id in analyze_ids:
                assert jobs[job_id].state == "done", jobs[job_id].error
                assert "E[C^1]" in jobs[job_id].result["summary"]
            doomed = jobs[doomed_id]
            assert doomed.state == "dead"
            assert doomed.attempts == 2  # exactly one reduced-deadline retry
            assert doomed.retries >= 1
            assert "analysis deadline exceeded" in doomed.error

            # 3. The hung job: 8s of runtime under a 1s cap.  The
            #    heartbeat stops at the cap, the lease expires, the store
            #    reclaims and re-delivers; past the attempt budget (plus
            #    the one crash-grace delivery) the recovery path presumes
            #    the job hung and dead-letters it.  The workers stay stuck
            #    for a while — the *job* must not.
            response = _post(port, "/jobs", {
                "kind": "sleep", "seconds": 8.0, "timeout": 1.0,
                "max_attempts": 2,
            })
            hung_id = response["id"]
            deadline = time.time() + 90.0
            hung = None
            while time.time() < deadline:
                hung = store.get(hung_id)
                if hung is not None and hung.terminal:
                    break
                time.sleep(0.25)
            assert hung is not None and hung.state == "dead"
            assert hung.attempts == 3  # budget of 2, one grace delivery
            assert hung.retries >= 2  # every reclaim was a lease expiry
            assert "presumed hung" in hung.error

            # 4. Inline /check in the serve process: correct through the
            #    corrupted cache, and it fires server-side fault counters.
            verdict = _post(port, "/check", {"program": SIMPLE, "spec": SPEC})
            assert verdict["ok"] and verdict["verdict"] == "pass"

            # 5. /metrics owns the story: armed faults, fired counters,
            #    timeout and dead-letter totals.
            _, raw = _get(port, "/metrics")
            snap = json.loads(raw)
            res = snap["resilience"]
            assert res["faults_armed"] is True
            assert res["timeouts"] >= 1
            assert res["timeout_dead"] >= 1
            assert res["faults"].get("cache.write:corrupt", 0) >= 1
            _, raw = _get(port, "/metrics?format=prometheus")
            text = raw.decode()
            assert "repro_faults_armed 1" in text
            assert "repro_analysis_timeouts_total" in text
            assert "repro_analysis_timeout_dead_total" in text
            assert 'repro_faults_injected_total{point="cache.write"' in text
            store.close()

            # 6. Graceful shutdown: the stuck workers' sleeps run out and
            #    the fleet drains clean.
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120.0) == 0
        except BaseException:
            proc.kill()
            raise
