"""Crash-safe fuzzing campaigns (:mod:`repro.soundness.campaign`).

The headline test is the SIGKILL parity drill: a campaign killed
mid-sweep and resumed must produce exactly the tallies and reproducer set
of an uninterrupted twin, with finished shards never re-checked.  Around
it: exactly-once case claims, idempotent shard completion, the quarantine
path under deterministic chaos injection, coverage-guided weights, the
content-addressed reproducer corpus, and the seeded tier-1 replay corpus.
"""

import json
import pathlib
import time

import pytest

from repro import faults
from repro.programs.fuzz import (
    FuzzConfig,
    bucket_signature,
    generate_case,
    generate_corpus,
    generate_shard_corpus,
)
from repro.service.jobs import WorkerPool
from repro.service.store import JobStore
from repro.soundness.campaign import (
    DEDUPED,
    QUARANTINED,
    CampaignConfig,
    CampaignStore,
    build_report,
    case_key,
    coverage_weights,
    enqueue_wave,
    execute_shard,
    run_campaign,
    shard_idempotency_key,
    start_campaign,
)
from repro.soundness.corpus import load_corpus, save_entry
from repro.soundness.differential import (
    VIOLATION,
    DifferentialConfig,
    check_case,
    minimize_case,
)

#: Fast campaign knobs shared by the integration tests: tiny corpora,
#: small MC sample counts, short leases so crash re-delivery is quick.
def small_config(**overrides) -> CampaignConfig:
    base = dict(
        seed_start=0,
        seed_count=8,
        shard_size=4,
        samples=300,
        max_steps=60_000,
        deadline_seconds=None,
        minimize_budget=4,
        minimize_seconds=5.0,
        probe_timeout=60.0,
    )
    base.update(overrides)
    return CampaignConfig(**base)


# ---------------------------------------------------------------------------
# Config / partition
# ---------------------------------------------------------------------------


class TestCampaignConfig:
    def test_partition_covers_range_exactly(self):
        config = CampaignConfig(seed_start=100, seed_count=11, shard_size=4)
        ranges = [config.shard_range(i) for i in range(config.shard_count)]
        assert ranges == [(100, 4), (104, 4), (108, 3)]
        seeds = [lo + i for lo, n in ranges for i in range(n)]
        assert seeds == list(range(100, 111))

    def test_roundtrip(self):
        config = CampaignConfig(
            seed_count=7, chaos_crash_seeds=(3,), max_rss_mb=512
        )
        again = CampaignConfig.from_dict(config.to_dict())
        assert again == config

    def test_digest_tracks_config(self):
        a = CampaignConfig(seed_count=10)
        b = CampaignConfig(seed_count=11)
        assert a.digest() == CampaignConfig(seed_count=10).digest()
        assert a.digest() != b.digest()
        assert shard_idempotency_key("n", 0, a) != shard_idempotency_key(
            "n", 0, b
        )

    def test_case_key_separates_degrees(self):
        case = generate_case(0)
        from dataclasses import replace

        other = replace(case, moment_degree=case.moment_degree + 1)
        assert case_key(case) != case_key(other)
        assert case_key(case) == case_key(generate_case(0))


class TestCoverageWeights:
    def test_none_until_coverage_exists(self):
        assert coverage_weights({}) is None

    def test_under_covered_kinds_weigh_more(self):
        buckets = {
            "loop+discrete|m2": 50,
            "straight|m1": 2,
        }
        weights = dict(coverage_weights(buckets))
        assert weights["straight"] > weights["walk"]
        assert weights["geo"] > weights["walk"]  # unseen beats saturated

    def test_shard_corpus_without_weights_matches_legacy(self):
        shard = generate_shard_corpus(5, 6, None, campaign_seed=0, shard_index=2)
        legacy = generate_corpus(6, seed=5)
        assert [c.source for c in shard] == [c.source for c in legacy]

    def test_shard_corpus_replay_is_byte_identical(self):
        config = FuzzConfig(kind_weights=(("straight", 8.0), ("walk", 0.1)))
        one = generate_shard_corpus(0, 8, config, campaign_seed=7, shard_index=3)
        two = generate_shard_corpus(0, 8, config, campaign_seed=7, shard_index=3)
        assert [c.source for c in one] == [c.source for c in two]


# ---------------------------------------------------------------------------
# Store: exactly-once primitives
# ---------------------------------------------------------------------------


class TestCampaignStore:
    def test_claim_cases_first_claimant_wins(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        camp = store.create_campaign(
            "claims", small_config(), tmp_path / "dir"
        )
        keys = ["k1", "k2", "k3"]
        assert store.claim_cases(camp["id"], 0, keys) == set(keys)
        # A second shard claiming an overlapping set only gets the fresh key.
        assert store.claim_cases(camp["id"], 1, ["k2", "k4"]) == {"k4"}
        # A replay of shard 0 re-observes its own claims.
        assert store.claim_cases(camp["id"], 0, keys) == set(keys)

    def test_complete_shard_is_idempotent(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        camp = store.create_campaign(
            "complete", small_config(), tmp_path / "dir"
        )
        assert store.complete_shard(camp["id"], 0, {"verified": 4}, {"s|m2": 4}, 1.0)
        before = store.get_shard(camp["id"], 0)["completed_at"]
        # The duplicate delivery changes nothing — tallies and buckets stay.
        assert not store.complete_shard(
            camp["id"], 0, {"verified": 999}, {"s|m2": 999}, 9.0
        )
        assert store.tallies(camp["id"])["verified"] == 4
        assert store.bucket_counts(camp["id"]) == {"s|m2": 4}
        assert store.get_shard(camp["id"], 0)["completed_at"] == before

    def test_create_campaign_rejects_config_drift(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        store.create_campaign("drift", small_config(), tmp_path / "dir")
        store.create_campaign("drift", small_config(), tmp_path / "dir")  # ok
        with pytest.raises(ValueError, match="different config"):
            store.create_campaign(
                "drift", small_config(seed_count=9), tmp_path / "dir"
            )

    def test_transactions_pass_the_store_tx_fault_point(self, tmp_path):
        """Campaign tables open their transactions through the job store's
        plumbing, so an armed ``store.tx`` fault aborts them too."""
        store = CampaignStore(tmp_path / "c.db")
        faults.configure("store.tx:raise:1:0")
        try:
            with pytest.raises(faults.FaultInjected):
                store.create_campaign("faulty", small_config(), tmp_path / "dir")
        finally:
            faults.configure("")
        assert store.get_campaign("faulty") is None


# ---------------------------------------------------------------------------
# Shard execution (no fleet: direct lease/execute)
# ---------------------------------------------------------------------------


def _lease_shard_job(db_path, campaign, *, owner="test-owner"):
    store = JobStore(db_path, visibility=30.0)
    cstore = CampaignStore(db_path)
    enqueue_wave(store, cstore, campaign)
    job = store.lease(owner)
    return store, cstore, job


class TestExecuteShard:
    def test_done_shard_short_circuits(self, tmp_path):
        db = tmp_path / "c.db"
        campaign = start_campaign(
            db, "short", small_config(seed_count=3, shard_size=3),
            tmp_path / "dir",
        )
        store, cstore, job = _lease_shard_job(db, campaign)
        first = execute_shard(job, db_path=str(db))
        assert first["ok"] and "replayed" not in first
        assert sum(first["tallies"].values()) == 3
        # Simulate a re-delivery of the same job after completion: nothing
        # is re-checked, the recorded tallies come back verbatim.
        again = execute_shard(job, db_path=str(db))
        assert again["replayed"] is True
        assert again["tallies"] == first["tallies"]

    def test_cross_shard_dedupe_counts_once(self, tmp_path):
        db = tmp_path / "c.db"
        # Two shards over the same seed... not possible via partition, so
        # pre-claim one of shard 0's case keys for a phantom shard 99 and
        # check the shard tallies it as deduped instead of re-analyzing.
        campaign = start_campaign(
            db, "dedupe", small_config(seed_count=2, shard_size=2),
            tmp_path / "dir",
        )
        cases = generate_shard_corpus(0, 2, None, campaign_seed=0, shard_index=0)
        cstore = CampaignStore(db)
        cstore.claim_cases(campaign["id"], 99, [case_key(cases[0])])
        store, cstore, job = _lease_shard_job(db, campaign)
        result = execute_shard(job, db_path=str(db))
        assert result["tallies"][DEDUPED] == 1
        assert sum(result["tallies"].values()) == 2


# ---------------------------------------------------------------------------
# End-to-end: uninterrupted, kill+resume parity, quarantine
# ---------------------------------------------------------------------------


def _reproducer_files(campaign_dir) -> list[str]:
    corpus_dir = pathlib.Path(campaign_dir) / "corpus"
    return sorted(p.name for p in corpus_dir.glob("*.appl"))


class TestCampaignEndToEnd:
    def test_campaign_completes_and_reports(self, tmp_path):
        db = tmp_path / "q.db"
        start_campaign(db, "e2e", small_config(), tmp_path / "camp")
        report = run_campaign(
            db, "e2e", workers=2, visibility=10.0, wave_timeout=240.0
        )
        assert report.complete
        assert report.state == "complete"
        assert report.checked == 8
        assert report.tallies["verified"] >= 6
        assert report.tallies[QUARANTINED] == 0
        assert len(report.buckets) >= 2
        assert report.verified_per_second > 0
        # Re-running a complete campaign is a no-op with identical results.
        again = run_campaign(db, "e2e", workers=1, visibility=10.0)
        assert again.tallies == report.tallies

    def test_sigkill_resume_parity(self, tmp_path):
        """The acceptance drill: SIGKILL mid-sweep, resume, and the final
        tallies, reproducer set, and per-shard accounting match an
        uninterrupted twin — no shard checked twice, no reproducer lost.

        ``z=0.05`` makes MC noise escape the (correct) intervals, so the
        campaign deterministically finds "violations" and the reproducer
        pipeline is exercised for real.
        """
        config = small_config(
            seed_count=12, shard_size=2, z=0.05, minimize_budget=2,
            minimize_seconds=2.0,
        )

        # Twin A: uninterrupted.
        db_a = tmp_path / "a.db"
        start_campaign(db_a, "twin", config, tmp_path / "dira")
        report_a = run_campaign(
            db_a, "twin", workers=1, visibility=3.0, wave=100,
            wave_timeout=240.0,
        )
        assert report_a.complete

        # Twin B: enqueue everything, SIGKILL the lone worker mid-sweep.
        db_b = tmp_path / "b.db"
        start_campaign(db_b, "twin", config, tmp_path / "dirb")
        store = JobStore(db_b, visibility=3.0)
        cstore = CampaignStore(db_b)
        campaign = cstore.get_campaign("twin")
        enqueue_wave(store, cstore, campaign)
        pool = WorkerPool(db_b, 1, visibility=3.0, poll=0.05, respawn=False)
        pool.start()
        deadline = time.time() + 120.0
        while time.time() < deadline:
            if cstore.shard_counts(campaign["id"])["done"] >= 2:
                break
            time.sleep(0.02)
        done_before = {
            row["idx"]: row["completed_at"]
            for idx in range(config.shard_count)
            for row in [cstore.get_shard(campaign["id"], idx)]
            if row["state"] == "done"
        }
        assert done_before, "fleet never finished a shard before the kill"
        pool.kill_worker()
        pool.stop(graceful=False)

        # Resume with a fresh fleet; only unfinished shards replay.
        report_b = run_campaign(
            db_b, "twin", workers=1, visibility=3.0, wave=100,
            wave_timeout=240.0,
        )
        assert report_b.complete

        # Identical final tallies and reproducer sets.
        assert report_b.tallies == report_a.tallies
        assert report_b.reproducers == report_a.reproducers
        assert report_a.reproducers, "drill config should find violations"
        assert _reproducer_files(tmp_path / "dirb") == _reproducer_files(
            tmp_path / "dira"
        )

        # Exactly-once: shards finished before the kill were not re-run
        # (their completion timestamps are untouched and their jobs were
        # delivered exactly once).
        attempts = cstore.shard_attempts(campaign["id"], store)
        for idx, stamp in done_before.items():
            assert cstore.get_shard(campaign["id"], idx)["completed_at"] == stamp
            assert attempts[idx] == 1

    def test_chaos_quarantine(self, tmp_path):
        """A case that hard-kills its worker and one that OOMs are both
        dead-lettered with provenance; the campaign still completes."""
        db = tmp_path / "q.db"
        config = small_config(
            chaos_crash_seeds=(5,), chaos_oom_seeds=(2,), minimize_seconds=6.0
        )
        start_campaign(db, "chaos", config, tmp_path / "camp")
        report = run_campaign(
            db, "chaos", workers=1, visibility=3.0, wave_timeout=240.0
        )
        assert report.complete
        assert report.tallies[QUARANTINED] == 2
        by_seed = {entry["seed"]: entry for entry in report.quarantine}
        assert set(by_seed) == {2, 5}
        assert "MemoryError" in by_seed[2]["reason"]
        assert "probe confirmed" in by_seed[5]["reason"]
        assert by_seed[5]["provenance"]["attempts"] >= 2
        assert by_seed[5]["provenance"]["minimized_sha256"]
        # Quarantined programs are dumped (content-addressed) for the runbook.
        dumps = list((tmp_path / "camp" / "quarantine").glob("*.appl"))
        assert dumps


# ---------------------------------------------------------------------------
# Reproducer corpus (content-addressed store + seeded tier-1 replay)
# ---------------------------------------------------------------------------


CORPUS_DIR = pathlib.Path(__file__).parent / "data" / "fuzz_corpus"


class TestCorpusStore:
    def test_roundtrip(self, tmp_path):
        case = generate_case(11)
        entry = save_entry(
            tmp_path, case.source,
            {
                "seed": case.seed,
                "initial": case.initial,
                "valuation": case.valuation,
                "moment_degree": case.moment_degree,
            },
        )
        loaded = load_corpus(tmp_path)
        assert [e.digest for e in loaded] == [entry.digest]
        rebuilt = loaded[0].case()
        assert rebuilt.source == case.source
        assert rebuilt.valuation == case.valuation
        assert rebuilt.moment_degree == case.moment_degree

    def test_save_is_idempotent(self, tmp_path):
        case = generate_case(3)
        one = save_entry(tmp_path, case.source, {"seed": 3})
        two = save_entry(tmp_path, case.source, {"seed": 3})
        assert one.digest == two.digest
        assert len(list(tmp_path.glob("*.appl"))) == 1

    def test_corrupt_entry_is_skipped(self, tmp_path):
        case = generate_case(4)
        entry = save_entry(tmp_path, case.source, {"seed": 4})
        (tmp_path / f"{entry.digest}.appl").write_text("func main() begin skip end\n")
        assert load_corpus(tmp_path) == []

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []


class TestSeededCorpusReplay:
    """Tier-1 replay of the committed regression corpus: every stored
    reproducer must still re-verify (tolerant of an empty corpus)."""

    def test_replay_all_entries(self):
        entries = load_corpus(CORPUS_DIR)
        config = DifferentialConfig(samples=1500, max_steps=150_000)
        for entry in entries:
            outcome = check_case(entry.case(), config)
            assert outcome.status != VIOLATION, (
                f"corpus entry {entry.digest[:16]} regressed:"
                f" {outcome.detail}\n{entry.source}"
            )

    def test_committed_corpus_is_content_addressed(self):
        entries = load_corpus(CORPUS_DIR)
        for entry in entries:
            assert entry.meta.get("sha256") == entry.digest
        # The seeded corpus itself should not be empty (the empty-corpus
        # tolerance is for downstream forks that prune tests/data).
        assert len(entries) >= 1


# ---------------------------------------------------------------------------
# Minimizer bounds
# ---------------------------------------------------------------------------


class TestMinimizerBounds:
    def test_minimize_seconds_zero_stops_immediately(self):
        case = generate_case(0)
        config = DifferentialConfig(
            samples=200, max_steps=50_000, minimize_seconds=0.0
        )
        best, spent = minimize_case(case, config)
        assert spent == 0
        assert best.source == case.source

    def test_minimize_budget_zero_stops_immediately(self):
        case = generate_case(0)
        config = DifferentialConfig(
            samples=200, max_steps=50_000, minimize_budget=0
        )
        best, spent = minimize_case(case, config)
        assert spent == 0


# ---------------------------------------------------------------------------
# Metrics + CLI surfaces
# ---------------------------------------------------------------------------


class TestCampaignSurfaces:
    def test_metrics_fuzz_section(self, tmp_path):
        from repro.service.metrics import ServiceMetrics
        from repro.soundness.campaign import campaign_metrics

        db = tmp_path / "q.db"
        # Queue-only store: no campaign tables, no fuzz section.
        store = JobStore(db)
        assert campaign_metrics(db) is None
        assert "fuzz" not in ServiceMetrics(store=store).snapshot()

        start_campaign(db, "m", small_config(seed_count=3, shard_size=3),
                       tmp_path / "camp")
        cstore = CampaignStore(db)
        campaign = cstore.get_campaign("m")
        enqueue_wave(store, cstore, campaign)
        job = store.lease("metrics-owner")
        execute_shard(job, db_path=str(db))
        store.ack(job.id, "metrics-owner", {"ok": True})

        snap = ServiceMetrics(store=store).snapshot()
        assert snap["fuzz"]["campaigns"] == 1
        assert snap["fuzz"]["shards"]["done"] == 1
        assert sum(snap["fuzz"]["tallies"].values()) == 3
        assert snap["queue"]["kinds"]["fuzz_shard"]["done"] == 1
        text = ServiceMetrics(store=store).render_prometheus()
        assert 'repro_fuzz_shards{state="done"} 1' in text
        assert 'repro_jobs_by_kind{kind="fuzz_shard",state="done"} 1' in text

    def test_cli_status_unknown_campaign(self, tmp_path, capsys):
        from repro.cli import run

        code = run(
            [
                "fuzz", "campaign", "status",
                "--db", str(tmp_path / "missing.db"), "--name", "ghost",
            ]
        )
        assert code == 2

    def test_cli_campaign_lifecycle(self, tmp_path, capsys):
        from repro.cli import run

        db = str(tmp_path / "q.db")
        code = run(
            [
                "fuzz", "campaign", "start", "--db", db, "--name", "cli",
                "--seeds", "4", "--shard-size", "2", "--samples", "250",
                "--deadline", "30", "--workers", "1", "--visibility", "5",
                "--dir", str(tmp_path / "camp"),
            ]
        )
        assert code == 0, capsys.readouterr().out
        capsys.readouterr()
        assert run(["fuzz", "campaign", "status", "--db", db, "--name", "cli"]) == 0
        out = capsys.readouterr().out
        assert "2/2 shards" in out
        assert (
            run(["fuzz", "campaign", "report", "--db", db, "--name", "cli",
                 "--json"])
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["state"] == "complete"
        assert document["checked"] == 4
