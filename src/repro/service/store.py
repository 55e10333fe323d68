"""Durable job store: a SQLite/WAL-backed queue the worker fleet drains.

The service layer's crash-safety story lives here.  A job is a row; every
state transition is one SQLite transaction, so a killed worker, a killed
server, or a yanked power cord can lose at most the *lease* on a job,
never the job itself and never an acknowledged result.

Job lifecycle::

                 enqueue                    lease
    (idempotency dedupe) --> queued -----------------> leased
                               ^                      |   |  \
                               |  nack (attempts left)|   |   ack
                               |  or visibility expiry|   |    \
                               +----------------------+   |     --> done
                                 (not_before = backoff)   |
                                                          | nack, attempts
                                                          v exhausted
                                                         dead

* **queued** — waiting for a worker; ``not_before`` delays retries
  (exponential backoff).
* **leased** — a worker holds it until ``lease_deadline``; heartbeats
  extend the deadline.  If the worker dies, the lease expires and the next
  ``lease()`` call atomically re-queues it — the job is re-delivered, not
  lost.
* **done** — terminal; ``result`` holds the JSON payload the worker acked.
* **dead** — terminal dead-letter: the job failed ``max_attempts`` times
  (or was nacked as non-retryable); ``error`` records the last failure.

Concurrency model: every mutating read-modify-write runs under ``BEGIN
IMMEDIATE``, which takes the single SQLite write lock up front — two
workers (threads *or* processes; WAL mode is cross-process) can never
lease the same job, double-recover an expired lease, or double-apply an
idempotent enqueue.  ``ack``/``nack``/``extend_lease`` are fenced by the
``(owner, attempt)`` pair recorded at lease time, so a worker whose lease
expired (and whose job was re-delivered elsewhere) gets ``False`` back
instead of clobbering the new owner's run.

The store object is cheap and connection-per-thread; open one per process
against the same path and SQLite arbitrates.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro import faults

#: Terminal states — a job here is never picked up again.
TERMINAL_STATES = ("done", "dead")
#: Every state a job row can be in.
JOB_STATES = ("queued", "leased", "done", "dead")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id              INTEGER PRIMARY KEY AUTOINCREMENT,
    kind            TEXT    NOT NULL DEFAULT 'analyze',
    payload         TEXT    NOT NULL,
    priority        INTEGER NOT NULL DEFAULT 0,
    idempotency_key TEXT,
    state           TEXT    NOT NULL DEFAULT 'queued',
    attempts        INTEGER NOT NULL DEFAULT 0,
    max_attempts    INTEGER NOT NULL DEFAULT 3,
    not_before      REAL    NOT NULL DEFAULT 0,
    lease_owner     TEXT,
    lease_deadline  REAL,
    enqueued_at     REAL    NOT NULL,
    started_at      REAL,
    finished_at     REAL,
    result          TEXT,
    error           TEXT,
    retries         INTEGER NOT NULL DEFAULT 0
);
CREATE UNIQUE INDEX IF NOT EXISTS jobs_idempotency
    ON jobs(idempotency_key) WHERE idempotency_key IS NOT NULL;
CREATE INDEX IF NOT EXISTS jobs_ready
    ON jobs(state, not_before, priority, id);
"""


@dataclass
class Job:
    """One job row, decoded.  ``payload``/``result`` are JSON values."""

    id: int
    kind: str
    payload: object
    priority: int
    idempotency_key: str | None
    state: str
    attempts: int
    max_attempts: int
    not_before: float
    lease_owner: str | None
    lease_deadline: float | None
    enqueued_at: float
    started_at: float | None
    finished_at: float | None
    result: object | None
    error: str | None
    retries: int

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def run_seconds(self) -> float | None:
        """Wall time of the successful run (analysis latency)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def wait_seconds(self) -> float | None:
        """Time spent queued before the (last) lease."""
        if self.started_at is None:
            return None
        return self.started_at - self.enqueued_at

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "priority": self.priority,
            "idempotency_key": self.idempotency_key,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "retries": self.retries,
            "enqueued_at": self.enqueued_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "run_seconds": self.run_seconds,
            "error": self.error,
        }


def _decode(row: sqlite3.Row) -> Job:
    return Job(
        id=row["id"],
        kind=row["kind"],
        payload=json.loads(row["payload"]),
        priority=row["priority"],
        idempotency_key=row["idempotency_key"],
        state=row["state"],
        attempts=row["attempts"],
        max_attempts=row["max_attempts"],
        not_before=row["not_before"],
        lease_owner=row["lease_owner"],
        lease_deadline=row["lease_deadline"],
        enqueued_at=row["enqueued_at"],
        started_at=row["started_at"],
        finished_at=row["finished_at"],
        result=json.loads(row["result"]) if row["result"] is not None else None,
        error=row["error"],
        retries=row["retries"],
    )


class SQLiteStore:
    """Tables in one SQLite file: WAL mode, one connection per thread, and
    ``BEGIN IMMEDIATE`` transactions.

    :class:`JobStore` and the fuzzing campaign's ``CampaignStore`` build
    on it; a campaign keeps its tables in the queue's file.  A subclass
    sets ``SCHEMA``, the idempotent DDL of its tables, which runs when a
    store opens the file.
    """

    SCHEMA = ""

    def __init__(
        self, path: "str | os.PathLike", *, busy_timeout: float = 30.0
    ) -> None:
        self.path = Path(path)
        self._busy_ms = int(busy_timeout * 1000)
        self._local = threading.local()
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # executescript manages its own transaction (implicit COMMIT first).
        self._conn().executescript(self.SCHEMA)

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(
                self.path, timeout=self._busy_ms / 1000.0, isolation_level=None
            )
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={self._busy_ms}")
            self._local.conn = conn
        return conn

    class _tx_ctx:
        """``BEGIN IMMEDIATE`` transaction: the write lock is taken up
        front, so every read inside sees the state it will modify."""

        def __init__(self, conn: sqlite3.Connection):
            self.conn = conn

        def __enter__(self) -> sqlite3.Connection:
            # Injected before BEGIN so a fired fault aborts the transaction
            # cleanly — nothing is left holding the write lock (models a
            # busy/erroring disk at the point SQLite would acquire it).
            faults.check("store.tx")
            self.conn.execute("BEGIN IMMEDIATE")
            return self.conn

        def __exit__(self, exc_type, exc, tb) -> None:
            if exc_type is None:
                self.conn.execute("COMMIT")
            else:
                self.conn.execute("ROLLBACK")

    def _tx(self) -> "_tx_ctx":
        return self._tx_ctx(self._conn())

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None


class JobStore(SQLiteStore):
    """Durable priority queue over one SQLite file (see module docstring).

    ``retry_base``/``retry_cap`` shape the exponential backoff applied by
    :meth:`nack`: the n-th retry waits ``min(retry_base * 2**(n-1),
    retry_cap)`` seconds.  ``visibility`` is the default lease length.
    """

    SCHEMA = _SCHEMA

    def __init__(
        self,
        path: "str | os.PathLike",
        *,
        visibility: float = 60.0,
        retry_base: float = 0.25,
        retry_cap: float = 60.0,
        busy_timeout: float = 30.0,
    ) -> None:
        self.visibility = visibility
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        super().__init__(path, busy_timeout=busy_timeout)

    # -- enqueue ------------------------------------------------------------

    def enqueue(
        self,
        payload: object,
        *,
        kind: str = "analyze",
        priority: int = 0,
        idempotency_key: str | None = None,
        max_attempts: int = 3,
        not_before: float = 0.0,
    ) -> tuple[int, bool]:
        """Add a job; returns ``(job_id, deduped)``.

        With an ``idempotency_key``, a concurrent or repeated enqueue of
        the same key returns the *existing* job's id with ``deduped=True``
        — exactly one row ever exists per key, enforced by a unique index
        inside the same transaction that inserts.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        body = json.dumps(payload, sort_keys=True)
        now = time.time()
        with self._tx() as conn:
            if idempotency_key is not None:
                row = conn.execute(
                    "SELECT id FROM jobs WHERE idempotency_key = ?",
                    (idempotency_key,),
                ).fetchone()
                if row is not None:
                    return row["id"], True
            cursor = conn.execute(
                "INSERT INTO jobs (kind, payload, priority, idempotency_key,"
                " state, max_attempts, not_before, enqueued_at)"
                " VALUES (?, ?, ?, ?, 'queued', ?, ?, ?)",
                (kind, body, priority, idempotency_key, max_attempts,
                 not_before, now),
            )
            return cursor.lastrowid, False

    # -- lease / ack / nack --------------------------------------------------

    def lease(
        self, owner: str, *, visibility: float | None = None, now: float | None = None
    ) -> Job | None:
        """Atomically claim the readiest job (or ``None`` if the queue is
        drained).

        Highest ``priority`` first, then FIFO by id.  Expired leases are
        re-queued *inside the same transaction* before picking, so a
        crashed worker's job is re-delivered to exactly one new owner —
        there is no window where two callers can both see it as
        recoverable.
        """
        if now is None:
            now = time.time()
        timeout = self.visibility if visibility is None else visibility
        with self._tx() as conn:
            self._recover_locked(conn, now)
            row = conn.execute(
                "SELECT * FROM jobs WHERE state = 'queued' AND not_before <= ?"
                " ORDER BY priority DESC, id ASC LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET state = 'leased', lease_owner = ?,"
                " lease_deadline = ?, attempts = attempts + 1, started_at = ?"
                " WHERE id = ?",
                (owner, now + timeout, now, row["id"]),
            )
            fresh = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (row["id"],)
            ).fetchone()
            return _decode(fresh)

    def extend_lease(
        self, job_id: int, owner: str, *, visibility: float | None = None
    ) -> bool:
        """Heartbeat: push the deadline out.  ``False`` if the lease is no
        longer ours (expired and re-delivered, or job finished)."""
        timeout = self.visibility if visibility is None else visibility
        with self._tx() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET lease_deadline = ? WHERE id = ? AND"
                " state = 'leased' AND lease_owner = ?",
                (time.time() + timeout, job_id, owner),
            )
            return cursor.rowcount == 1

    def ack(self, job_id: int, owner: str, result: object) -> bool:
        """Commit a successful result.  Owner-fenced: a worker whose lease
        expired (job re-delivered) gets ``False`` and must discard its
        result — the new owner's ack wins.  Once this returns ``True`` the
        result is on disk and survives any crash."""
        body = json.dumps(result, sort_keys=True)
        with self._tx() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = 'done', result = ?, finished_at = ?,"
                " lease_owner = NULL, lease_deadline = NULL, error = NULL"
                " WHERE id = ? AND state = 'leased' AND lease_owner = ?",
                (body, time.time(), job_id, owner),
            )
            return cursor.rowcount == 1

    def nack(
        self, job_id: int, owner: str, error: str, *, retryable: bool = True
    ) -> bool:
        """Record a failure.  Retries remaining → back to ``queued`` with
        exponential backoff; exhausted (or ``retryable=False``) → ``dead``.
        Owner-fenced like :meth:`ack`."""
        now = time.time()
        with self._tx() as conn:
            row = conn.execute(
                "SELECT attempts, max_attempts FROM jobs WHERE id = ? AND"
                " state = 'leased' AND lease_owner = ?",
                (job_id, owner),
            ).fetchone()
            if row is None:
                return False
            if retryable and row["attempts"] < row["max_attempts"]:
                delay = min(
                    self.retry_base * (2.0 ** (row["attempts"] - 1)),
                    self.retry_cap,
                )
                conn.execute(
                    "UPDATE jobs SET state = 'queued', lease_owner = NULL,"
                    " lease_deadline = NULL, not_before = ?, error = ?,"
                    " retries = retries + 1 WHERE id = ?",
                    (now + delay, error, job_id),
                )
            else:
                conn.execute(
                    "UPDATE jobs SET state = 'dead', lease_owner = NULL,"
                    " lease_deadline = NULL, finished_at = ?, error = ?"
                    " WHERE id = ?",
                    (now, error, job_id),
                )
            return True

    # -- crash recovery ------------------------------------------------------

    def _recover_locked(self, conn: sqlite3.Connection, now: float) -> int:
        """Re-queue expired leases (caller holds the write transaction).

        An exhausted job whose *lease* expired still gets one more
        delivery — the attempt was charged at lease time but never ran to
        a verdict; dead-lettering is the verdict of a nack, not a crash.
        That grace is bounded, though: a job whose lease expires *again*
        on the delivery past its budget is presumed hung (wedged worker,
        runtime cap exceeded) and dead-letters here, or it would ping-pong
        between stuck workers forever."""
        conn.execute(
            "UPDATE jobs SET state = 'dead', lease_owner = NULL,"
            " lease_deadline = NULL, finished_at = ?,"
            " error = 'lease expired after ' || attempts || ' deliveries;"
            " job presumed hung (runtime cap exceeded or worker wedged)'"
            " WHERE state = 'leased' AND lease_deadline < ?"
            " AND attempts > max_attempts",
            (now, now),
        )
        cursor = conn.execute(
            "UPDATE jobs SET state = 'queued', lease_owner = NULL,"
            " lease_deadline = NULL, not_before = ?, retries = retries + 1"
            " WHERE state = 'leased' AND lease_deadline < ?",
            (now, now),
        )
        return cursor.rowcount

    def recover_expired(self, now: float | None = None) -> int:
        """Re-queue every job whose lease expired; returns how many.
        Called on server start so leased-but-unacked jobs from a crashed
        fleet resume, and implicitly by every :meth:`lease`."""
        if now is None:
            now = time.time()
        with self._tx() as conn:
            return self._recover_locked(conn, now)

    def requeue_dead(self) -> int:
        """Ops escape hatch: give every dead-letter job a fresh budget."""
        with self._tx() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = 'queued', attempts = 0,"
                " not_before = 0, finished_at = NULL WHERE state = 'dead'"
            )
            return cursor.rowcount

    # -- queries -------------------------------------------------------------

    def get(self, job_id: int) -> Job | None:
        row = self._conn().execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return _decode(row) if row is not None else None

    def counts(self) -> dict[str, int]:
        """``{state: rows}`` over all four states (zeros included)."""
        counts = dict.fromkeys(JOB_STATES, 0)
        for row in self._conn().execute(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ):
            counts[row["state"]] = row["n"]
        return counts

    def counts_by_kind(self) -> dict[str, dict[str, int]]:
        """``{kind: {state: rows}}`` — the /metrics breakdown that
        separates campaign shard jobs from ordinary analyses."""
        out: dict[str, dict[str, int]] = {}
        for row in self._conn().execute(
            "SELECT kind, state, COUNT(*) AS n FROM jobs GROUP BY kind, state"
        ):
            out.setdefault(row["kind"], dict.fromkeys(JOB_STATES, 0))[
                row["state"]
            ] = row["n"]
        return out

    def depth(self) -> int:
        """Jobs still owed work: queued + leased."""
        row = self._conn().execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE state IN ('queued', 'leased')"
        ).fetchone()
        return row["n"]

    def totals(self) -> dict[str, int]:
        """Lifetime counters for /metrics: enqueued, retried, attempts."""
        row = self._conn().execute(
            "SELECT COUNT(*) AS enqueued, COALESCE(SUM(retries), 0) AS retried,"
            " COALESCE(SUM(attempts), 0) AS attempts FROM jobs"
        ).fetchone()
        return {
            "enqueued": row["enqueued"],
            "retried": row["retried"],
            "attempts": row["attempts"],
        }

    def resilience_totals(self) -> dict[str, int]:
        """Timeout/degradation counters for /metrics, derived from the
        rows themselves (durable, like every other queue metric).

        ``timeouts`` counts jobs whose *last recorded* failure was an
        analysis deadline (the marker string is the fixed prefix of every
        :class:`~repro.deadline.AnalysisTimeout` message); ``timeout_dead``
        is the subset that dead-lettered; ``degraded`` counts done jobs
        whose result carries a graceful-degradation provenance block.
        """
        conn = self._conn()
        marker = "%analysis deadline exceeded%"
        timeouts = conn.execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE error LIKE ?", (marker,)
        ).fetchone()["n"]
        timeout_dead = conn.execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE state = 'dead'"
            " AND error LIKE ?",
            (marker,),
        ).fetchone()["n"]
        degraded = conn.execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE state = 'done'"
            " AND result LIKE ?",
            ('%"degraded"%',),
        ).fetchone()["n"]
        return {
            "timeouts": timeouts,
            "timeout_dead": timeout_dead,
            "degraded": degraded,
        }

    def run_latencies(self, limit: int = 1024) -> tuple[list[float], list[float]]:
        """``(run, wait)`` seconds of the most recently finished ``done``
        jobs (newest first, index-aligned) — the one sample /metrics
        derives its analysis-latency and queue-wait summaries from.  Run
        is last lease → finish, wait is enqueue → last lease (see
        :attr:`Job.wait_seconds`).  Durable: percentiles survive a server
        restart because the sample is the store itself."""
        rows = self._conn().execute(
            "SELECT finished_at - started_at AS run,"
            " started_at - enqueued_at AS wait FROM jobs"
            " WHERE state = 'done' AND started_at IS NOT NULL"
            " ORDER BY finished_at DESC LIMIT ?",
            (limit,),
        ).fetchall()
        return (
            [max(row["run"], 0.0) for row in rows],
            [max(row["wait"], 0.0) for row in rows],
        )

    def iter_jobs(self, ids: "list[int]") -> list[Job | None]:
        """Fetch many jobs by id (order preserved, ``None`` for unknown)."""
        if not ids:
            return []
        marks = ",".join("?" for _ in ids)
        rows = self._conn().execute(
            f"SELECT * FROM jobs WHERE id IN ({marks})", tuple(ids)
        ).fetchall()
        by_id = {row["id"]: _decode(row) for row in rows}
        return [by_id.get(i) for i in ids]

    # -- maintenance ---------------------------------------------------------

    def purge_terminal(self, older_than_seconds: float = 7 * 24 * 3600.0) -> int:
        """Delete done/dead rows finished more than ``older_than_seconds``
        ago (the runbook's retention knob); returns rows removed."""
        cutoff = time.time() - older_than_seconds
        with self._tx() as conn:
            cursor = conn.execute(
                "DELETE FROM jobs WHERE state IN ('done', 'dead')"
                " AND finished_at IS NOT NULL AND finished_at < ?",
                (cutoff,),
            )
            return cursor.rowcount

    def vacuum(self) -> None:
        """Reclaim file space after a purge (WAL checkpoint + VACUUM)."""
        conn = self._conn()
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        conn.execute("VACUUM")


__all__ = ["Job", "JobStore", "JOB_STATES", "SQLiteStore", "TERMINAL_STATES"]
