"""Durable-queue batch overhead: the worker fleet vs. direct analysis.

The same cold workload is run twice:

* **direct** — sequential in-process analysis, one fresh
  :class:`~repro.service.cache.ArtifactCache` per program (the floor: what
  the work itself costs);
* **queue** — every program is enqueued as a durable row in a temp SQLite
  :class:`~repro.service.store.JobStore`; a 2-process
  :class:`~repro.service.jobs.WorkerPool` runs them through a shared disk
  cache, :func:`~repro.service.jobs.wait_for_jobs` reads the acked rows
  back, and the fleet is stopped.

The delta is the full price of durability — enqueue transactions, lease
polling, process startup, result JSON round-trips.  The numbers go to
``BENCH_queue.json`` at the repo root; CI gates
``queue_batch_total_seconds`` against the committed record via the
consolidated regression gate.  Acceptance: per-job queue overhead stays
under ``OVERHEAD_CEILING_SECONDS``.
"""

import json
import pathlib
import tempfile
import time

from _harness import emit
from repro import AnalysisOptions, AnalysisPipeline
from repro.lang.printer import canonical_program
from repro.programs.synthetic import coupon_chain, rdwalk_chain
from repro.service.jobs import WorkerPool, options_to_dict, wait_for_jobs
from repro.service.store import JobStore

RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_queue.json"

WORKLOAD = {
    "coupon_chain(2)": lambda: coupon_chain(2),
    "coupon_chain(4)": lambda: coupon_chain(4),
    "coupon_chain(6)": lambda: coupon_chain(6),
    "rdwalk_chain(1)": lambda: rdwalk_chain(1),
    "rdwalk_chain(2)": lambda: rdwalk_chain(2),
}

MOMENT_DEGREE = 2
WORKERS = 2
#: Generous on purpose: the gate must catch "the queue got pathologically
#: slower", not CI scheduler noise on a 2-core runner.
OVERHEAD_CEILING_SECONDS = 2.5


def _direct_pass() -> float:
    start = time.perf_counter()
    for make in WORKLOAD.values():
        AnalysisPipeline(make(), artifacts=None).analyze(
            AnalysisOptions(moment_degree=MOMENT_DEGREE)
        )
    return time.perf_counter() - start


def _queue_pass() -> tuple[float, list]:
    programs = [make() for make in WORKLOAD.values()]
    options = options_to_dict(AnalysisOptions(moment_degree=MOMENT_DEGREE))
    with tempfile.TemporaryDirectory() as cache_dir:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as db_dir:
            store = JobStore(pathlib.Path(db_dir) / "jobs.sqlite3")
            ids = [
                store.enqueue(
                    {"program": canonical_program(program), "options": options},
                    kind="analyze",
                )[0]
                for program in programs
            ]
            pool = WorkerPool(store.path, WORKERS, cache_dir, poll=0.05).start()
            try:
                jobs = wait_for_jobs(store, ids, timeout=600.0)
            finally:
                pool.stop(graceful=True, timeout=10.0)
                store.close()
        elapsed = time.perf_counter() - start
    return elapsed, jobs


def test_queue_batch_overhead(benchmark):
    direct_total = _direct_pass()
    queue_total, jobs_done = benchmark.pedantic(
        _queue_pass, rounds=1, iterations=1
    )

    assert all(job.state == "done" for job in jobs_done), [
        (job.id, job.state, job.error) for job in jobs_done
    ]
    jobs = len(WORKLOAD)
    overhead = queue_total - direct_total
    per_job = overhead / jobs

    lines = [
        f"queue-batch benchmark ({jobs} programs at moment degree "
        f"{MOMENT_DEGREE}, {WORKERS} workers)",
        f"{'pass':>8} {'total (s)':>10}",
        f"{'direct':>8} {direct_total:>10.3f}",
        f"{'queue':>8} {queue_total:>10.3f}",
        f"per-job durability overhead: {per_job:.3f}s "
        f"(ceiling {OVERHEAD_CEILING_SECONDS}s)",
    ]
    emit("queue_batch", lines)

    RESULT_PATH.write_text(
        json.dumps(
            {
                "workload": f"{jobs} synthetic programs at moment degree "
                f"{MOMENT_DEGREE}",
                "workers": WORKERS,
                "direct_total_seconds": round(direct_total, 4),
                "queue_batch_total_seconds": round(queue_total, 4),
                "per_job_overhead_seconds": round(per_job, 4),
                "overhead_ceiling_seconds": OVERHEAD_CEILING_SECONDS,
            },
            indent=2,
        )
        + "\n"
    )

    assert per_job < OVERHEAD_CEILING_SECONDS, (
        f"durable-queue overhead {per_job:.3f}s/job exceeds the "
        f"{OVERHEAD_CEILING_SECONDS}s ceiling (direct {direct_total:.3f}s, "
        f"queue {queue_total:.3f}s for {jobs} jobs)"
    )
