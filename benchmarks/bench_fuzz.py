"""Fuzzing-campaign throughput: a durable sharded sweep end to end.

One small-but-real campaign runs through the whole crash-safe pipeline —
shard jobs on the SQLite/WAL queue, a 2-process worker fleet, exactly-once
case claims, coverage bucketing, report assembly — and the wall clock for
the complete sweep is recorded.  This is the cost of *durable* fuzzing:
the same seeds via plain :func:`~repro.soundness.differential.run_differential`
would skip the queue, the ledger, and the dedupe claims entirely.

The numbers go to ``BENCH_fuzz.json`` at the repo root; CI gates
``campaign_total_seconds`` against the committed record via the
consolidated regression gate (with a wide threshold — the runner has 2
cores).  Each wave wakes the fleet as it is enqueued, so a wave does not
wait out an idle worker's poll.  Acceptance: every seed is accounted for
exactly once and throughput stays above ``FLOOR_CASES_PER_SECOND``.
"""

import json
import pathlib
import tempfile
import time

from _harness import emit
from repro.soundness.campaign import (
    CampaignConfig,
    run_campaign,
    start_campaign,
)

RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_fuzz.json"

CONFIG = CampaignConfig(
    seed_start=0,
    seed_count=24,
    shard_size=4,
    samples=400,
    max_steps=80_000,
    deadline_seconds=None,
)
WORKERS = 2
#: Throughput floor, not a target: catches "campaigns got pathologically
#: slow", not scheduler noise.  Locally this runs at >8 cases/s.
FLOOR_CASES_PER_SECOND = 0.5


def _campaign_pass():
    with tempfile.TemporaryDirectory() as tmp:
        db = pathlib.Path(tmp) / "queue.db"
        start_campaign(db, "bench", CONFIG, pathlib.Path(tmp) / "campaign")
        start = time.perf_counter()
        report = run_campaign(
            db, "bench", workers=WORKERS, visibility=30.0, wave_timeout=600.0
        )
        elapsed = time.perf_counter() - start
    return elapsed, report


def test_campaign_throughput(benchmark):
    total, report = benchmark.pedantic(_campaign_pass, rounds=1, iterations=1)

    assert report.complete, report.summary()
    assert report.checked == CONFIG.seed_count
    assert report.tallies["quarantined"] == 0
    cases_per_second = report.checked / total

    lines = [
        f"fuzzing-campaign benchmark ({CONFIG.seed_count} seeds, "
        f"{CONFIG.shard_count} shards, {WORKERS} workers)",
        f"{'total (s)':>12} {'cases/s':>9} {'buckets':>8} {'verified':>9}",
        f"{total:>12.3f} {cases_per_second:>9.2f} "
        f"{len(report.buckets):>8} {report.tallies['verified']:>9}",
    ]
    emit("fuzz_campaign", lines)

    RESULT_PATH.write_text(
        json.dumps(
            {
                "workload": f"{CONFIG.seed_count} fuzz seeds in "
                f"{CONFIG.shard_count} durable shards",
                "workers": WORKERS,
                "campaign_total_seconds": round(total, 4),
                "cases_per_second": round(cases_per_second, 4),
                "coverage_buckets": len(report.buckets),
                "tallies": dict(report.tallies),
                "floor_cases_per_second": FLOOR_CASES_PER_SECOND,
            },
            indent=2,
        )
        + "\n"
    )

    assert cases_per_second > FLOOR_CASES_PER_SECOND, (
        f"campaign throughput {cases_per_second:.2f} cases/s fell below the "
        f"{FLOOR_CASES_PER_SECOND} floor ({total:.3f}s for "
        f"{report.checked} cases)"
    )
