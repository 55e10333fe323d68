"""Crash-safe corpus-scale fuzzing campaigns.

A *campaign* turns the in-memory ``repro fuzz`` sweep into a durable,
resumable system: a seed range is partitioned into fixed-size **shards**,
each shard rides the SQLite/WAL :class:`~repro.service.store.JobStore` as a
``fuzz_shard`` job, and the existing crash-isolated worker fleet executes
them (generate → canonicalize → dedupe → analyze → MC-differential check).
All campaign state lives in the *same* SQLite file as the queue, so the
campaign inherits the store's durability story wholesale.

Guarantees, each exercised in ``tests/test_fuzz_campaign.py``:

* **Exactly-once shard accounting.**  Shard jobs carry idempotent keys
  (campaign name, shard index, config digest), so re-enqueues dedupe to
  one row; shard *completion* is committed to the campaign tables in its
  own transaction **before** the job acks, and a re-delivered job whose
  shard row is already ``done`` short-circuits to the recorded tallies —
  a finished shard is never analyzed twice, no matter how the job layer
  retries.
* **Byte-identical resume.**  A shard's durable payload records everything
  generation depends on (seed range, fuzz config, coverage weights); the
  per-shard sub-RNG (:func:`repro.programs.fuzz.shard_rng`) is keyed by the
  payload alone, so a replay after SIGKILL regenerates the same programs.
* **Reproducers survive anything.**  A violation is minimized (under the
  deadline/budget caps of the differential config) and persisted to the
  campaign's content-addressed regression corpus *before* the shard
  completes — the crash window between "found" and "recorded" is closed,
  and content addressing makes the write idempotent across re-deliveries.
* **Poison quarantine.**  A program that hard-crashes or OOMs a worker
  kills the process, not the campaign: the shard row tracks the case being
  executed; on re-delivery that case is re-checked in a guarded probe
  subprocess (:mod:`repro.soundness.probe`, rlimits via
  ``resource.setrlimit``); if the probe also dies, the case is minimized
  under a wall-clock deadline (still through probes) and dead-lettered
  into the ``quarantine`` table + corpus with full provenance, and the
  shard carries on.
* **Coverage-guided generation.**  Completed shards tally bucket
  signatures (feature set × moment degree); each new wave of shards is
  enqueued with kind weights biased toward the under-covered block
  templates, baked into the payload so the bias is durable too.

``chaos_*_seeds`` in the config inject deterministic worker deaths
(``os._exit``) and OOMs (``MemoryError``) for specific seeds — the drill
machinery behind the quarantine tests and the nightly kill+resume drill.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sqlite3
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from repro.programs.fuzz import (
    TEMPLATE_KINDS,
    FuzzCase,
    FuzzConfig,
    bucket_signature,
    generate_shard_corpus,
)
from repro.service.jobs import JobFailure, wait_for_jobs
from repro.service.store import Job, JobStore, SQLiteStore
from repro.soundness import corpus as corpus_store
from repro.soundness.differential import (
    STATUSES,
    VIOLATION,
    DifferentialConfig,
    check_case,
    minimize_case,
)

#: Shard-level statuses beyond the differential ones.
QUARANTINED = "quarantined"
DEDUPED = "deduped"
TALLY_KEYS = STATUSES + (QUARANTINED, DEDUPED)

CAMPAIGN_STATES = ("running", "complete")
SHARD_STATES = ("pending", "done", "failed")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id          INTEGER PRIMARY KEY,
    name        TEXT NOT NULL UNIQUE,
    config      TEXT NOT NULL,
    dir         TEXT NOT NULL,
    state       TEXT NOT NULL DEFAULT 'running',
    created_at  REAL NOT NULL,
    finished_at REAL
);
CREATE TABLE IF NOT EXISTS campaign_shards (
    campaign    INTEGER NOT NULL,
    idx         INTEGER NOT NULL,
    seed_lo     INTEGER NOT NULL,
    count       INTEGER NOT NULL,
    payload     TEXT,
    job_id      INTEGER,
    state       TEXT NOT NULL DEFAULT 'pending',
    tallies     TEXT,
    wall_seconds REAL,
    completed_at REAL,
    last_case_seed INTEGER,
    error       TEXT,
    PRIMARY KEY (campaign, idx)
);
CREATE TABLE IF NOT EXISTS campaign_cases (
    campaign    INTEGER NOT NULL,
    case_key    TEXT NOT NULL,
    shard       INTEGER NOT NULL,
    PRIMARY KEY (campaign, case_key)
);
CREATE TABLE IF NOT EXISTS campaign_buckets (
    campaign    INTEGER NOT NULL,
    signature   TEXT NOT NULL,
    count       INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (campaign, signature)
);
CREATE TABLE IF NOT EXISTS campaign_quarantine (
    campaign    INTEGER NOT NULL,
    seed        INTEGER NOT NULL,
    shard       INTEGER NOT NULL,
    case_key    TEXT NOT NULL,
    reason      TEXT NOT NULL,
    provenance  TEXT NOT NULL,
    created_at  REAL NOT NULL,
    PRIMARY KEY (campaign, seed)
);
CREATE TABLE IF NOT EXISTS campaign_reproducers (
    campaign    INTEGER NOT NULL,
    digest      TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    shard       INTEGER NOT NULL,
    report      TEXT NOT NULL,
    created_at  REAL NOT NULL,
    PRIMARY KEY (campaign, digest)
);
"""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignConfig:
    """Durable knobs of one campaign (stored as JSON in the DB)."""

    seed_start: int = 0
    seed_count: int = 500
    shard_size: int = 25
    samples: int = 2000
    z: float = 5.0
    max_steps: int = 200_000
    #: Per-case analysis/simulation deadline (``None`` = unbounded).
    deadline_seconds: "float | None" = 30.0
    minimize_budget: int = 80
    #: Wall-clock cap on one minimization (violations and poison alike).
    minimize_seconds: float = 60.0
    #: Wall-clock cap on one quarantine probe subprocess.
    probe_timeout: float = 120.0
    #: RSS cap (MiB) applied to workers and probes; ``None`` = unguarded.
    max_rss_mb: "int | None" = None
    #: Fraction of each shard generated with the coverage bias applied.
    bias_fraction: float = 0.5
    #: Job-layer delivery budget per shard.
    max_attempts: int = 4
    #: Drill hooks: seeds that OOM (MemoryError) / hard-kill the worker.
    chaos_oom_seeds: tuple[int, ...] = ()
    chaos_crash_seeds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed_count < 1:
            raise ValueError("seed_count must be at least 1")
        if self.shard_size < 1:
            raise ValueError("shard_size must be at least 1")

    @property
    def shard_count(self) -> int:
        return math.ceil(self.seed_count / self.shard_size)

    def shard_range(self, idx: int) -> tuple[int, int]:
        """(seed_lo, count) of shard ``idx``."""
        lo = self.seed_start + idx * self.shard_size
        hi = min(self.seed_start + self.seed_count, lo + self.shard_size)
        return lo, hi - lo

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["chaos_oom_seeds"] = list(self.chaos_oom_seeds)
        out["chaos_crash_seeds"] = list(self.chaos_crash_seeds)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["chaos_oom_seeds"] = tuple(kwargs.get("chaos_oom_seeds") or ())
        kwargs["chaos_crash_seeds"] = tuple(kwargs.get("chaos_crash_seeds") or ())
        return cls(**kwargs)

    def digest(self) -> str:
        """Config content hash — part of every shard's idempotency key, so
        two campaigns that share a name but differ in config cannot alias
        each other's shard jobs."""
        body = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    def differential(self) -> DifferentialConfig:
        return DifferentialConfig(
            samples=self.samples,
            z=self.z,
            max_steps=self.max_steps,
            minimize=True,
            minimize_budget=self.minimize_budget,
            minimize_seconds=self.minimize_seconds,
            deadline_seconds=self.deadline_seconds,
        )

    def chaos(self) -> "dict | None":
        if not self.chaos_oom_seeds and not self.chaos_crash_seeds:
            return None
        return {
            "oom": list(self.chaos_oom_seeds),
            "crash": list(self.chaos_crash_seeds),
        }


def chaos_check(seed: int, chaos: "dict | None") -> None:
    """Deterministic fault injection keyed by case seed (drills only)."""
    if not chaos:
        return
    if seed in (chaos.get("oom") or ()):
        raise MemoryError(f"chaos oom injection (seed {seed})")
    if seed in (chaos.get("crash") or ()):
        os._exit(137)  # simulate a hard worker death (OOM-killer style)


def case_key(case: FuzzCase) -> str:
    """Content address of one *check*: program text plus everything that
    changes the verdict (initial state, valuation, moment degree).  Two
    seeds that generate the same check dedupe campaign-wide on this key."""
    meta = json.dumps(
        {
            "initial": case.initial,
            "valuation": case.valuation,
            "m": case.moment_degree,
        },
        sort_keys=True,
    )
    return hashlib.sha256((case.source + "\n" + meta).encode()).hexdigest()


def apply_worker_guards(max_rss_mb: "int | None") -> None:
    """Best-effort RSS cap for the current (worker) process."""
    if not max_rss_mb:
        return
    try:
        import resource
    except ImportError:
        return
    cap = int(max_rss_mb) << 20
    try:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    except (ValueError, OSError):
        pass


# ---------------------------------------------------------------------------
# Campaign store
# ---------------------------------------------------------------------------


class CampaignStore(SQLiteStore):
    """Campaign tables in the queue's SQLite file (WAL, BEGIN IMMEDIATE).

    Sharing the file with :class:`JobStore` means a shard-completion
    transaction and the job ack hit the same durable medium; the ordering
    (complete first, ack second) plus the done-shard short-circuit in
    :func:`execute_shard` is what yields exactly-once accounting.  Its
    transactions pass the same ``store.tx`` fault point as the queue's.
    """

    SCHEMA = _SCHEMA

    # -- campaigns ----------------------------------------------------------

    def create_campaign(
        self, name: str, config: CampaignConfig, directory: "str | os.PathLike"
    ) -> dict:
        """Create the campaign row + its full shard partition (idempotent
        per name; a config mismatch on an existing name is an error)."""
        body = json.dumps(config.to_dict(), sort_keys=True)
        with self._tx() as conn:
            row = conn.execute(
                "SELECT * FROM campaigns WHERE name = ?", (name,)
            ).fetchone()
            if row is not None:
                if row["config"] != body:
                    raise ValueError(
                        f"campaign {name!r} already exists with a different"
                        " config; pick a new name or resume the old one"
                    )
                return self._decode_campaign(row)
            cursor = conn.execute(
                "INSERT INTO campaigns (name, config, dir, state, created_at)"
                " VALUES (?, ?, ?, 'running', ?)",
                (name, body, str(directory), time.time()),
            )
            cid = cursor.lastrowid
            for idx in range(config.shard_count):
                lo, count = config.shard_range(idx)
                conn.execute(
                    "INSERT OR IGNORE INTO campaign_shards"
                    " (campaign, idx, seed_lo, count) VALUES (?, ?, ?, ?)",
                    (cid, idx, lo, count),
                )
        got = self.get_campaign(name)
        assert got is not None
        return got

    @staticmethod
    def _decode_campaign(row: sqlite3.Row) -> dict:
        return {
            "id": row["id"],
            "name": row["name"],
            "config": CampaignConfig.from_dict(json.loads(row["config"])),
            "dir": row["dir"],
            "state": row["state"],
            "created_at": row["created_at"],
            "finished_at": row["finished_at"],
        }

    def get_campaign(self, name: str) -> "dict | None":
        row = self._conn().execute(
            "SELECT * FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        return self._decode_campaign(row) if row is not None else None

    def campaign_names(self) -> list[str]:
        return [
            row["name"]
            for row in self._conn().execute(
                "SELECT name FROM campaigns ORDER BY id"
            )
        ]

    def set_campaign_state(self, campaign_id: int, state: str) -> None:
        finished = time.time() if state == "complete" else None
        with self._tx() as conn:
            conn.execute(
                "UPDATE campaigns SET state = ?, finished_at = ? WHERE id = ?",
                (state, finished, campaign_id),
            )

    # -- shards -------------------------------------------------------------

    def get_shard(self, campaign_id: int, idx: int) -> "sqlite3.Row | None":
        return self._conn().execute(
            "SELECT * FROM campaign_shards WHERE campaign = ? AND idx = ?",
            (campaign_id, idx),
        ).fetchone()

    def pending_shards(
        self, campaign_id: int, limit: "int | None" = None
    ) -> list[sqlite3.Row]:
        sql = (
            "SELECT * FROM campaign_shards WHERE campaign = ?"
            " AND state = 'pending' ORDER BY idx"
        )
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return self._conn().execute(sql, (campaign_id,)).fetchall()

    def set_shard_payload(
        self, campaign_id: int, idx: int, payload: dict, job_id: int
    ) -> None:
        """Record the durable generation payload (first writer wins — a
        resume must replay the payload the original run enqueued, not
        recompute coverage weights from post-hoc state)."""
        body = json.dumps(payload, sort_keys=True)
        with self._tx() as conn:
            conn.execute(
                "UPDATE campaign_shards SET payload = COALESCE(payload, ?),"
                " job_id = ? WHERE campaign = ? AND idx = ?",
                (body, job_id, campaign_id, idx),
            )

    def mark_case(self, campaign_id: int, idx: int, seed: int) -> None:
        """Poison tracking: the case a shard is about to execute.  If the
        worker dies here, the re-delivered shard treats it as suspect."""
        with self._tx() as conn:
            conn.execute(
                "UPDATE campaign_shards SET last_case_seed = ?"
                " WHERE campaign = ? AND idx = ?",
                (seed, campaign_id, idx),
            )

    def claim_cases(
        self, campaign_id: int, idx: int, keys: list[str]
    ) -> set[str]:
        """Campaign-wide dedupe: atomically claim ``keys`` for shard
        ``idx``; returns the subset this shard owns (first claimant wins,
        replays re-observe their old claims)."""
        with self._tx() as conn:
            for key in keys:
                conn.execute(
                    "INSERT OR IGNORE INTO campaign_cases"
                    " (campaign, case_key, shard) VALUES (?, ?, ?)",
                    (campaign_id, key, idx),
                )
            marks = ",".join("?" for _ in keys) or "''"
            rows = conn.execute(
                f"SELECT case_key FROM campaign_cases WHERE campaign = ?"
                f" AND shard = ? AND case_key IN ({marks})",
                (campaign_id, idx, *keys),
            ).fetchall()
        return {row["case_key"] for row in rows}

    def complete_shard(
        self,
        campaign_id: int,
        idx: int,
        tallies: dict,
        signatures: dict,
        wall_seconds: float,
    ) -> bool:
        """Commit a shard's results (tallies + bucket coverage) in one
        transaction; idempotent — ``False`` if the shard was already done
        (a racing duplicate delivery), in which case nothing changes."""
        with self._tx() as conn:
            row = conn.execute(
                "SELECT state FROM campaign_shards WHERE campaign = ?"
                " AND idx = ?",
                (campaign_id, idx),
            ).fetchone()
            if row is None or row["state"] == "done":
                return False
            conn.execute(
                "UPDATE campaign_shards SET state = 'done', tallies = ?,"
                " wall_seconds = ?, completed_at = ?, last_case_seed = NULL,"
                " error = NULL WHERE campaign = ? AND idx = ?",
                (
                    json.dumps(tallies, sort_keys=True),
                    wall_seconds,
                    time.time(),
                    campaign_id,
                    idx,
                ),
            )
            for signature, count in signatures.items():
                conn.execute(
                    "INSERT INTO campaign_buckets (campaign, signature, count)"
                    " VALUES (?, ?, ?) ON CONFLICT (campaign, signature)"
                    " DO UPDATE SET count = count + excluded.count",
                    (campaign_id, signature, int(count)),
                )
        return True

    def fail_shard(self, campaign_id: int, idx: int, error: str) -> None:
        """Mark a shard failed (its job dead-lettered) without completing
        it — the campaign carries on and `status` surfaces the failure."""
        with self._tx() as conn:
            conn.execute(
                "UPDATE campaign_shards SET state = 'failed', error = ?"
                " WHERE campaign = ? AND idx = ? AND state != 'done'",
                (error, campaign_id, idx),
            )

    def shard_counts(self, campaign_id: int) -> dict[str, int]:
        counts = dict.fromkeys(SHARD_STATES, 0)
        for row in self._conn().execute(
            "SELECT state, COUNT(*) AS n FROM campaign_shards"
            " WHERE campaign = ? GROUP BY state",
            (campaign_id,),
        ):
            counts[row["state"]] = row["n"]
        return counts

    def shard_attempts(self, campaign_id: int, store: JobStore) -> dict[int, int]:
        """``{shard idx: job attempts}`` for shards with an enqueued job."""
        rows = self._conn().execute(
            "SELECT idx, job_id FROM campaign_shards WHERE campaign = ?"
            " AND job_id IS NOT NULL",
            (campaign_id,),
        ).fetchall()
        out: dict[int, int] = {}
        for row in rows:
            job = store.get(row["job_id"])
            if job is not None:
                out[row["idx"]] = job.attempts
        return out

    # -- rollups ------------------------------------------------------------

    def tallies(self, campaign_id: int) -> dict[str, int]:
        """Campaign-wide case tallies summed over completed shards."""
        totals: Counter = Counter({key: 0 for key in TALLY_KEYS})
        for row in self._conn().execute(
            "SELECT tallies FROM campaign_shards WHERE campaign = ?"
            " AND state = 'done' AND tallies IS NOT NULL",
            (campaign_id,),
        ):
            totals.update(json.loads(row["tallies"]))
        return dict(totals)

    def bucket_counts(self, campaign_id: int) -> dict[str, int]:
        return {
            row["signature"]: row["count"]
            for row in self._conn().execute(
                "SELECT signature, count FROM campaign_buckets"
                " WHERE campaign = ? ORDER BY signature",
                (campaign_id,),
            )
        }

    def record_quarantine(
        self,
        campaign_id: int,
        seed: int,
        shard: int,
        key: str,
        reason: str,
        provenance: dict,
    ) -> None:
        with self._tx() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO campaign_quarantine"
                " (campaign, seed, shard, case_key, reason, provenance,"
                " created_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    seed,
                    shard,
                    key,
                    reason,
                    json.dumps(provenance, sort_keys=True),
                    time.time(),
                ),
            )

    def quarantine_entries(self, campaign_id: int) -> list[dict]:
        return [
            {
                "seed": row["seed"],
                "shard": row["shard"],
                "case_key": row["case_key"],
                "reason": row["reason"],
                "provenance": json.loads(row["provenance"]),
                "created_at": row["created_at"],
            }
            for row in self._conn().execute(
                "SELECT * FROM campaign_quarantine WHERE campaign = ?"
                " ORDER BY seed",
                (campaign_id,),
            )
        ]

    def record_reproducer(
        self, campaign_id: int, digest: str, seed: int, shard: int, report: dict
    ) -> None:
        with self._tx() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO campaign_reproducers"
                " (campaign, digest, seed, shard, report, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    digest,
                    seed,
                    shard,
                    json.dumps(report, sort_keys=True),
                    time.time(),
                ),
            )

    def reproducer_digests(self, campaign_id: int) -> list[str]:
        return [
            row["digest"]
            for row in self._conn().execute(
                "SELECT digest FROM campaign_reproducers WHERE campaign = ?"
                " ORDER BY digest",
                (campaign_id,),
            )
        ]

    def wall_seconds(self, campaign_id: int) -> float:
        row = self._conn().execute(
            "SELECT COALESCE(SUM(wall_seconds), 0.0) AS s FROM campaign_shards"
            " WHERE campaign = ? AND state = 'done'",
            (campaign_id,),
        ).fetchone()
        return float(row["s"])


# ---------------------------------------------------------------------------
# Coverage-guided weights
# ---------------------------------------------------------------------------

#: Which bucket feature each block-template kind feeds.
_KIND_FEATURES = {
    "walk": "loop",
    "straight": "straight",
    "climb": "recursion",
    "geo": "geo",
}


def coverage_weights(buckets: dict[str, int]) -> "tuple[tuple[str, float], ...] | None":
    """Kind weights inversely proportional to observed feature coverage.

    ``None`` until any coverage exists (the first wave runs unbiased)."""
    if not buckets:
        return None
    per_kind = {kind: 0 for kind in TEMPLATE_KINDS}
    for signature, count in buckets.items():
        feats = signature.split("|", 1)[0].split("+")
        for kind, feature in _KIND_FEATURES.items():
            if feature in feats:
                per_kind[kind] += count
    total = sum(per_kind.values())
    if total <= 0:
        return None
    # weight = (1 + mean) / (1 + observed): under-covered kinds get > 1.
    mean = total / len(per_kind)
    return tuple(
        (kind, (1.0 + mean) / (1.0 + per_kind[kind]))
        for kind in TEMPLATE_KINDS
    )


# ---------------------------------------------------------------------------
# Shard execution (runs inside fleet workers)
# ---------------------------------------------------------------------------


def shard_idempotency_key(name: str, idx: int, config: CampaignConfig) -> str:
    return f"fuzz-shard:{name}:{idx}:{config.digest()}"


def _fuzz_config(payload: dict) -> FuzzConfig:
    weights = payload.get("kind_weights")
    if weights:
        weights = tuple((str(k), float(v)) for k, v in weights)
    else:
        weights = None
    return FuzzConfig(kind_weights=weights)


def _case_report(outcome, config: CampaignConfig) -> dict:
    return {
        "case": outcome.case.name,
        "seed": outcome.case.seed,
        "status": outcome.status,
        "detail": outcome.detail,
        "moment_degree": outcome.case.moment_degree,
        "initial": outcome.case.initial,
        "valuation": outcome.case.valuation,
        "features": list(outcome.case.features),
        "samples": config.samples,
        "z": config.z,
        "max_steps": config.max_steps,
        "checks": [
            {
                "kind": c.kind, "k": c.k, "policy": c.policy,
                "lo": float(c.lo), "hi": float(c.hi),
                "estimate": float(c.estimate), "margin": float(c.margin),
                "ok": c.ok,
            }
            for c in outcome.checks
        ],
    }


def minimize_poison(
    case: FuzzCase,
    diff_config: DifferentialConfig,
    *,
    chaos: "dict | None",
    limits: dict,
    probe_timeout: float,
    budget_seconds: float,
    max_candidates: int = 12,
) -> tuple[FuzzCase, int]:
    """Shrink a poison case while it still kills the probe.

    Every candidate evaluation is a fresh guarded subprocess, so the
    minimizer itself can never be taken down; the wall-clock budget bounds
    the whole scan (subprocess startup dominates, hence the small
    candidate cap)."""
    from repro.lang.printer import canonical_program
    from repro.soundness.differential import _shrink_candidates
    from repro.soundness.probe import probe_case

    best = case
    spent = 0
    stop_at = time.perf_counter() + budget_seconds
    improved = True
    while improved and spent < max_candidates:
        improved = False
        for candidate_program in _shrink_candidates(best.parse()):
            if spent >= max_candidates or time.perf_counter() >= stop_at:
                return best, spent
            spent += 1
            candidate = replace(best, source=canonical_program(candidate_program))
            verdict = probe_case(
                candidate,
                diff_config,
                chaos=chaos,
                limits=limits,
                timeout=probe_timeout,
            )
            if not verdict.get("ok"):
                best = candidate
                improved = True
                break
    return best, spent


def _quarantine(
    cstore: CampaignStore,
    campaign_id: int,
    shard_idx: int,
    case: FuzzCase,
    key: str,
    reason: str,
    config: CampaignConfig,
    payload: dict,
    job: Job,
    *,
    probe_evidence: "dict | None" = None,
    minimize: bool = True,
) -> None:
    """Dead-letter one poison case with provenance; persisted before the
    shard's tallies are committed, so quarantine survives any later crash."""
    diff_config = replace(config.differential(), minimize=False)
    limits = {
        "max_rss_mb": config.max_rss_mb,
        "max_cpu_seconds": config.deadline_seconds,
    }
    minimized = case
    probes_spent = 0
    if minimize:
        minimized, probes_spent = minimize_poison(
            case,
            diff_config,
            chaos=config.chaos(),
            limits=limits,
            probe_timeout=config.probe_timeout,
            budget_seconds=config.minimize_seconds,
        )
    provenance = {
        "reason": reason,
        "shard": shard_idx,
        "job_id": job.id,
        "attempts": job.attempts,
        "probe": probe_evidence or {},
        "minimize_probes": probes_spent,
        "minimized_sha256": corpus_store.program_key(minimized.source),
    }
    quarantine_dir = Path(payload["dir"]) / "quarantine"
    corpus_store.save_entry(
        quarantine_dir,
        minimized.source,
        {
            "seed": case.seed,
            "status": QUARANTINED,
            "detail": reason,
            "initial": case.initial,
            "valuation": case.valuation,
            "moment_degree": case.moment_degree,
            "features": list(case.features),
            "original_sha256": corpus_store.program_key(case.source),
            "provenance": provenance,
        },
    )
    cstore.record_quarantine(
        campaign_id, case.seed, shard_idx, key, reason, provenance
    )


def execute_shard(job: Job, cache=None, db_path: "str | None" = None) -> dict:
    """Run one ``fuzz_shard`` job (inside a fleet worker).

    The contract with the job layer: all campaign-table writes (case
    claims, reproducers, quarantine, shard completion) commit *before*
    this function returns, i.e. before the worker acks.  A crash at any
    point re-delivers the job; the done-shard short-circuit and the
    content-addressed corpus writes make the replay idempotent.
    """
    payload = job.payload if isinstance(job.payload, dict) else {}
    if db_path is None:
        db_path = payload.get("db")
    if db_path is None:
        raise JobFailure("fuzz_shard job without a store path", retryable=False)
    cstore = CampaignStore(db_path)
    try:
        campaign_id = int(payload["campaign_id"])
        shard_idx = int(payload["shard"])
        shard = cstore.get_shard(campaign_id, shard_idx)
        if shard is None:
            raise JobFailure(
                f"unknown shard {shard_idx} of campaign {campaign_id}",
                retryable=False,
            )
        if shard["state"] == "done":
            # Exactly-once: a re-delivered, already-completed shard returns
            # its recorded tallies without re-checking anything.
            return {
                "ok": True,
                "shard": shard_idx,
                "replayed": True,
                "tallies": json.loads(shard["tallies"] or "{}"),
            }
        config = CampaignConfig.from_dict(payload.get("config") or {})
        apply_worker_guards(config.max_rss_mb)
        suspect_seed = shard["last_case_seed"] if job.attempts > 1 else None
        diff_config = config.differential()
        cases = generate_shard_corpus(
            int(payload["seed_lo"]),
            int(payload["count"]),
            _fuzz_config(payload),
            campaign_seed=config.seed_start,
            shard_index=shard_idx,
            bias_fraction=config.bias_fraction,
        )
        keyed = [(case_key(c), c) for c in cases]
        owned = cstore.claim_cases(campaign_id, shard_idx, [k for k, _ in keyed])
        tallies: Counter = Counter()
        signatures: Counter = Counter()
        started = time.perf_counter()
        seen_in_shard: set[str] = set()
        for key, case in keyed:
            signatures[bucket_signature(case)] += 1
            if key not in owned or key in seen_in_shard:
                tallies[DEDUPED] += 1
                continue
            seen_in_shard.add(key)
            status = _run_case(
                cstore, campaign_id, shard_idx, case, key,
                config, diff_config, payload, job,
                suspect=(suspect_seed is not None and case.seed == suspect_seed),
            )
            tallies[status] += 1
        wall = time.perf_counter() - started
        cstore.complete_shard(
            campaign_id, shard_idx, dict(tallies), dict(signatures), wall
        )
        return {
            "ok": True,
            "shard": shard_idx,
            "tallies": dict(tallies),
            "wall_seconds": wall,
            "cases": len(keyed),
        }
    finally:
        cstore.close()


def _run_case(
    cstore: CampaignStore,
    campaign_id: int,
    shard_idx: int,
    case: FuzzCase,
    key: str,
    config: CampaignConfig,
    diff_config: DifferentialConfig,
    payload: dict,
    job: Job,
    *,
    suspect: bool,
) -> str:
    """Check one case; returns its tally status.  Handles the poison
    machinery: marker update, suspect probing, quarantine, reproducer
    persistence."""
    cstore.mark_case(campaign_id, shard_idx, case.seed)
    if suspect:
        # The worker previously died on exactly this case: never run it
        # in-process again.  A guarded probe decides innocent vs poison.
        from repro.soundness.probe import probe_case

        limits = {
            "max_rss_mb": config.max_rss_mb,
            "max_cpu_seconds": config.deadline_seconds,
        }
        verdict = probe_case(
            case,
            replace(diff_config, minimize=False),
            chaos=config.chaos(),
            limits=limits,
            timeout=config.probe_timeout,
        )
        if not verdict.get("ok"):
            _quarantine(
                cstore, campaign_id, shard_idx, case, key,
                f"worker died on this case; probe confirmed: "
                f"{verdict.get('reason', 'unknown')}",
                config, payload, job,
                probe_evidence=verdict,
            )
            return QUARANTINED
        status = str(verdict.get("status", ""))
        if status != VIOLATION:
            # Innocent and fully classified by the probe.
            return status if status in STATUSES else QUARANTINED
        # A violating (but non-crashing) case: fall through to the normal
        # in-process path so minimization + reproducer persistence run.
    try:
        chaos_check(case.seed, config.chaos())
        outcome = check_case(case, replace(diff_config, minimize=False))
    except MemoryError as exc:
        # The RSS guard fired in-process: quarantine directly — re-running
        # would OOM again, possibly less gracefully.
        _quarantine(
            cstore, campaign_id, shard_idx, case, key,
            f"MemoryError under rss guard: {exc}",
            config, payload, job,
        )
        return QUARANTINED
    if outcome.status == VIOLATION:
        if diff_config.minimize_budget > 0:
            minimized, _ = minimize_case(case, diff_config)
            outcome.minimized = minimized.source
        reproducer = (
            outcome.minimized if outcome.minimized is not None else case.source
        )
        report = _case_report(outcome, config)
        # Persist to the content-addressed corpus and the reproducers
        # table *now* — both are committed before the shard completes and
        # long before the job acks, so no crash can lose this find.
        entry = corpus_store.save_entry(
            Path(payload["dir"]) / "corpus",
            reproducer,
            {
                "seed": case.seed,
                "status": VIOLATION,
                "detail": outcome.detail,
                "initial": case.initial,
                "valuation": case.valuation,
                "moment_degree": case.moment_degree,
                "features": list(case.features),
                "original_sha256": corpus_store.program_key(case.source),
                "report": report,
            },
        )
        cstore.record_reproducer(
            campaign_id, entry.digest, case.seed, shard_idx, report
        )
    return outcome.status


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@dataclass
class CampaignReport:
    """Rollup of one campaign's durable state."""

    name: str
    state: str
    config: CampaignConfig
    shards: dict[str, int]
    tallies: dict[str, int]
    buckets: dict[str, int]
    reproducers: list[str]
    quarantine: list[dict] = field(default_factory=list)
    wall_seconds: float = 0.0
    elapsed: float = 0.0

    @property
    def complete(self) -> bool:
        return self.shards.get("pending", 0) == 0

    @property
    def checked(self) -> int:
        """Cases that got a verdict (everything except dedupe skips)."""
        return sum(v for k, v in self.tallies.items() if k != DEDUPED)

    @property
    def verified_per_second(self) -> float:
        wall = self.wall_seconds or self.elapsed
        if wall <= 0:
            return 0.0
        return self.tallies.get("verified", 0) / wall

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "config": self.config.to_dict(),
            "shards": self.shards,
            "tallies": self.tallies,
            "buckets": self.buckets,
            "reproducers": self.reproducers,
            "quarantine": self.quarantine,
            "wall_seconds": self.wall_seconds,
            "elapsed": self.elapsed,
            "checked": self.checked,
            "verified_per_second": self.verified_per_second,
        }

    def summary(self) -> str:
        parts = ", ".join(
            f"{v} {k}" for k, v in sorted(self.tallies.items()) if v
        ) or "no cases checked yet"
        lines = [
            f"campaign {self.name} [{self.state}]: "
            f"{self.shards.get('done', 0)}/{sum(self.shards.values())} shards"
            f" — {parts}",
            f"  buckets covered: {len(self.buckets)};"
            f" throughput: {self.verified_per_second:.2f} verified/s"
            f" over {self.wall_seconds:.1f}s shard-wall",
        ]
        for digest in self.reproducers:
            lines.append(f"  [VIOLATION] reproducer {digest[:16]}")
        for entry in self.quarantine:
            lines.append(
                f"  [QUARANTINE] seed {entry['seed']} (shard {entry['shard']}):"
                f" {entry['reason']}"
            )
        return "\n".join(lines)


def start_campaign(
    db_path: "str | os.PathLike",
    name: str,
    config: CampaignConfig,
    directory: "str | os.PathLike | None" = None,
) -> dict:
    """Create (or re-open, if config-identical) a campaign; makes the
    output directory skeleton."""
    if directory is None:
        directory = Path(str(db_path) + ".campaigns") / name
    directory = Path(directory)
    (directory / "corpus").mkdir(parents=True, exist_ok=True)
    (directory / "quarantine").mkdir(parents=True, exist_ok=True)
    cstore = CampaignStore(db_path)
    try:
        return cstore.create_campaign(name, config, directory)
    finally:
        cstore.close()


def enqueue_wave(
    store: JobStore,
    cstore: CampaignStore,
    campaign: dict,
    *,
    limit: "int | None" = None,
) -> list[tuple[int, int]]:
    """Enqueue up to ``limit`` pending shards; returns [(shard idx, job id)].

    Coverage weights are computed from the buckets observed *so far* and
    baked into each new shard's durable payload; shards that already have
    a payload (a resume) re-enqueue it verbatim — the idempotency key
    dedupes against any still-live job row.
    """
    config: CampaignConfig = campaign["config"]
    weights = coverage_weights(cstore.bucket_counts(campaign["id"]))
    out: list[tuple[int, int]] = []
    for shard in cstore.pending_shards(campaign["id"], limit):
        idx = shard["idx"]
        if shard["payload"]:
            payload = json.loads(shard["payload"])
        else:
            payload = {
                "campaign": campaign["name"],
                "campaign_id": campaign["id"],
                "shard": idx,
                "seed_lo": shard["seed_lo"],
                "count": shard["count"],
                "config": config.to_dict(),
                "dir": campaign["dir"],
                "kind_weights": (
                    [[k, v] for k, v in weights] if weights else None
                ),
            }
        job_id, _ = store.enqueue(
            payload,
            kind="fuzz_shard",
            idempotency_key=shard_idempotency_key(campaign["name"], idx, config),
            max_attempts=config.max_attempts,
        )
        cstore.set_shard_payload(campaign["id"], idx, payload, job_id)
        out.append((idx, job_id))
    return out


def _reap_wave(
    store: JobStore, cstore: CampaignStore, campaign: dict,
    enqueued: list[tuple[int, int]],
) -> None:
    """After a wave settles, surface dead-lettered shard jobs as failed
    shards (with the job error as provenance) so the campaign terminates
    instead of spinning on them forever."""
    for idx, job_id in enqueued:
        job = store.get(job_id)
        if job is not None and job.state == "dead":
            cstore.fail_shard(
                campaign["id"], idx,
                f"shard job {job_id} dead-lettered after {job.attempts}"
                f" attempts: {job.error}",
            )


def build_report(
    db_path: "str | os.PathLike", name: str, *, elapsed: float = 0.0
) -> CampaignReport:
    cstore = CampaignStore(db_path)
    try:
        campaign = cstore.get_campaign(name)
        if campaign is None:
            raise ValueError(f"no campaign named {name!r} in {db_path}")
        cid = campaign["id"]
        return CampaignReport(
            name=name,
            state=campaign["state"],
            config=campaign["config"],
            shards=cstore.shard_counts(cid),
            tallies=cstore.tallies(cid),
            buckets=cstore.bucket_counts(cid),
            reproducers=cstore.reproducer_digests(cid),
            quarantine=cstore.quarantine_entries(cid),
            wall_seconds=cstore.wall_seconds(cid),
            elapsed=elapsed,
        )
    finally:
        cstore.close()


def run_campaign(
    db_path: "str | os.PathLike",
    name: str,
    *,
    workers: int = 2,
    cache_dir: "str | None" = None,
    visibility: float = 60.0,
    wave: "int | None" = None,
    wave_timeout: float = 900.0,
    log=None,
) -> CampaignReport:
    """Drive a campaign to completion (start it first with
    :func:`start_campaign`); safe to call again after any crash — only
    unfinished shards run.

    The driver enqueues shards in waves (so coverage weights can steer
    later generation), runs a worker fleet over the queue that each
    enqueued shard wakes, and recovers expired leases up front — a
    SIGKILLed previous run's in-flight shards are re-delivered
    immediately instead of after a visibility timeout.
    """
    started = time.perf_counter()
    store = JobStore(db_path, visibility=visibility)
    cstore = CampaignStore(db_path)
    from repro.service.jobs import WorkerPool

    pool = None
    try:
        campaign = cstore.get_campaign(name)
        if campaign is None:
            raise ValueError(f"no campaign named {name!r} in {db_path}")
        store.recover_expired()
        wave_size = wave or max(4 * workers, 8)
        if cstore.pending_shards(campaign["id"], 1):
            pool = WorkerPool(
                db_path, workers, cache_dir, visibility=visibility
            ).start()
            last_pending = None
            while True:
                pending = cstore.shard_counts(campaign["id"])["pending"]
                if pending == 0:
                    break
                if last_pending is not None and pending >= last_pending:
                    # A full wave timed out with zero shards retired: stop
                    # driving rather than spin; the campaign stays
                    # 'running' and a later resume picks it back up.
                    if log:
                        log(
                            f"wave stalled with {pending} shards pending;"
                            " stopping (resume to continue)"
                        )
                    break
                last_pending = pending
                enqueued = enqueue_wave(
                    store, cstore, campaign, limit=wave_size
                )
                if not enqueued:
                    break
                for _ in enqueued:
                    pool.wake()
                if log:
                    log(
                        f"wave: {len(enqueued)} shards"
                        f" (first {enqueued[0][0]}, last {enqueued[-1][0]})"
                    )
                wait_for_jobs(
                    store, [job_id for _, job_id in enqueued],
                    timeout=wave_timeout,
                )
                _reap_wave(store, cstore, campaign, enqueued)
        counts = cstore.shard_counts(campaign["id"])
        if counts["pending"] == 0 and campaign["state"] != "complete":
            cstore.set_campaign_state(campaign["id"], "complete")
    finally:
        if pool is not None:
            pool.stop(graceful=True, timeout=30.0)
        store.close()
        cstore.close()
    return build_report(db_path, name, elapsed=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def campaign_metrics(db_path: "str | os.PathLike") -> "dict | None":
    """Aggregate campaign facts for ``/metrics``; ``None`` when the store
    has no campaign tables (a queue-only deployment)."""
    path = Path(db_path)
    if not path.exists():
        return None
    conn = sqlite3.connect(path, timeout=5.0)
    conn.row_factory = sqlite3.Row
    try:
        present = conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
            " AND name = 'campaigns'"
        ).fetchone()
        if present is None:
            return None
        campaigns = conn.execute(
            "SELECT COUNT(*) AS n FROM campaigns"
        ).fetchone()["n"]
        running = conn.execute(
            "SELECT COUNT(*) AS n FROM campaigns WHERE state = 'running'"
        ).fetchone()["n"]
        shards = dict.fromkeys(SHARD_STATES, 0)
        for row in conn.execute(
            "SELECT state, COUNT(*) AS n FROM campaign_shards GROUP BY state"
        ):
            shards[row["state"]] = row["n"]
        tallies: Counter = Counter({key: 0 for key in TALLY_KEYS})
        for row in conn.execute(
            "SELECT tallies FROM campaign_shards WHERE state = 'done'"
            " AND tallies IS NOT NULL"
        ):
            tallies.update(json.loads(row["tallies"]))
        reproducers = conn.execute(
            "SELECT COUNT(*) AS n FROM campaign_reproducers"
        ).fetchone()["n"]
        quarantined = conn.execute(
            "SELECT COUNT(*) AS n FROM campaign_quarantine"
        ).fetchone()["n"]
        buckets = conn.execute(
            "SELECT COUNT(*) AS n FROM campaign_buckets"
        ).fetchone()["n"]
        wall = conn.execute(
            "SELECT COALESCE(SUM(wall_seconds), 0.0) AS s"
            " FROM campaign_shards WHERE state = 'done'"
        ).fetchone()["s"]
        return {
            "campaigns": campaigns,
            "running": running,
            "shards": shards,
            "tallies": dict(tallies),
            "reproducers": reproducers,
            "quarantined": quarantined,
            "buckets": buckets,
            "wall_seconds": float(wall),
        }
    finally:
        conn.close()


__all__ = [
    "CAMPAIGN_STATES",
    "CampaignConfig",
    "CampaignReport",
    "CampaignStore",
    "DEDUPED",
    "QUARANTINED",
    "SHARD_STATES",
    "TALLY_KEYS",
    "apply_worker_guards",
    "build_report",
    "campaign_metrics",
    "case_key",
    "chaos_check",
    "coverage_weights",
    "enqueue_wave",
    "execute_shard",
    "minimize_poison",
    "run_campaign",
    "shard_idempotency_key",
    "start_campaign",
]
