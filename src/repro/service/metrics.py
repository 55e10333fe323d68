"""Service observability: the ``GET /metrics`` snapshot, JSON + Prometheus.

Everything here is *derived* state: queue gauges and latency percentiles
come straight from the :class:`JobStore` (so they are durable — a restarted
server reports the same p99 the crashed one would have), cache counters
from the :class:`ArtifactCache`, and fleet/service gauges from the live
process.  There is no separate metrics database to drift out of sync.

Exposed fields (JSON shape; the Prometheus text format carries the same
numbers under ``repro_*`` names — see ``render_prometheus``):

``queue.depth``
    queued + leased jobs: the backlog a new enqueue waits behind.
``queue.states.{queued,leased,done,dead}``
    per-state row counts.
``queue.enqueued_total / retried_total / attempts_total``
    lifetime counters (monotone until ``purge_terminal``).
``latency.{count,mean_seconds,p50_seconds,p99_seconds,max_seconds}``
    analysis run latency over the most recent ≤1024 finished jobs.
``queue_wait.{count,mean_seconds,p50_seconds,p99_seconds,max_seconds}``
    enqueue → last lease over the same jobs; a retried job's wait
    includes its earlier attempts and backoff.
``cache.{memory_hits,disk_hits,misses,writes,hit_rate}``
    artifact-cache counters; ``hit_rate`` = hits / (hits + misses).
``workers.{configured,alive,respawned}``
    fleet size, live processes, crash respawns.
``service.{uptime_seconds,requests_total,warm_pipelines}``
    HTTP-process facts.
``resilience.{timeouts,timeout_dead,degraded,faults_armed,faults}``
    deadline/degradation outcomes from the store plus fired
    fault-injection counters (:mod:`repro.faults`) — the numbers a chaos
    drill asserts against.
``fuzz.{campaigns,running,shards,tallies,reproducers,quarantined,buckets}``
    fuzzing-campaign rollup, present only when the store's SQLite file
    also carries campaign tables (:mod:`repro.soundness.campaign`).
"""

from __future__ import annotations

import math
import time

from repro import faults


def percentile(sample: "list[float]", q: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0 for empty)."""
    if not sample:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(sample)
    rank = max(math.ceil(q * len(ordered)), 1) - 1
    return ordered[rank]


class ServiceMetrics:
    """Snapshot assembler over the store / cache / fleet / HTTP service."""

    def __init__(self, store=None, cache=None, pool=None, service=None) -> None:
        self.store = store
        self.cache = cache
        self.pool = pool
        self.service = service
        self.started = time.time()

    # -- JSON ----------------------------------------------------------------

    def snapshot(self) -> dict:
        runs, waits = (
            self.store.run_latencies() if self.store is not None else ([], [])
        )
        out: dict = {
            "queue": self._queue(),
            "latency": _summary(runs),
            "queue_wait": _summary(waits),
            "cache": self._cache(),
            "workers": self._workers(),
            "service": self._service(),
            "resilience": self._resilience(),
        }
        fuzz = self._fuzz()
        if fuzz is not None:
            out["fuzz"] = fuzz
        return out

    def _queue(self) -> dict:
        if self.store is None:
            return {"enabled": False, "depth": 0, "states": {}}
        counts = self.store.counts()
        totals = self.store.totals()
        return {
            "enabled": True,
            "depth": counts["queued"] + counts["leased"],
            "states": counts,
            "kinds": self.store.counts_by_kind(),
            "enqueued_total": totals["enqueued"],
            "retried_total": totals["retried"],
            "attempts_total": totals["attempts"],
        }

    def _cache(self) -> dict:
        if self.cache is None:
            return {"enabled": False, "hit_rate": 0.0}
        stats = self.cache.stats.snapshot()
        hits = stats["memory_hits"] + stats["disk_hits"]
        asked = hits + stats["misses"]
        return {
            "enabled": True,
            "memory_hits": stats["memory_hits"],
            "disk_hits": stats["disk_hits"],
            "misses": stats["misses"],
            "writes": stats["writes"],
            "discarded": stats["discarded"],
            "corrupt_discarded": stats["corrupt_discarded"],
            "hit_rate": (hits / asked) if asked else 0.0,
        }

    def _workers(self) -> dict:
        if self.pool is None:
            return {"configured": 0, "alive": 0, "respawned": 0}
        return {
            "configured": self.pool.workers,
            "alive": self.pool.alive(),
            "respawned": self.pool.respawned,
        }

    def _service(self) -> dict:
        out = {"uptime_seconds": time.time() - self.started}
        if self.service is not None:
            out["requests_total"] = self.service.requests
            out["warm_pipelines"] = len(self.service._pipelines)
        return out

    def _fuzz(self) -> "dict | None":
        """Fuzzing-campaign rollup, when the store's SQLite file also holds
        campaign tables (see :func:`repro.soundness.campaign.campaign_metrics`);
        omitted entirely on queue-only deployments."""
        if self.store is None:
            return None
        try:
            from repro.soundness.campaign import campaign_metrics

            return campaign_metrics(self.store.path)
        except Exception:
            return None

    def _resilience(self) -> dict:
        out: dict = {
            "faults_armed": faults.armed(),
            "faults": faults.counters(),
        }
        if self.store is not None:
            out.update(self.store.resilience_totals())
        else:
            out.update({"timeouts": 0, "timeout_dead": 0, "degraded": 0})
        return out

    # -- Prometheus text format ----------------------------------------------

    def render_prometheus(self) -> str:
        """The snapshot as Prometheus text exposition (version 0.0.4)."""
        snap = self.snapshot()
        lines: list[str] = []

        def metric(name: str, kind: str, help_: str, samples) -> None:
            lines.append(f"# HELP {name} {help_}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, value in samples:
                label = (
                    "{" + ",".join(f'{k}="{v}"' for k, v in labels.items()) + "}"
                    if labels
                    else ""
                )
                lines.append(f"{name}{label} {_num(value)}")

        queue = snap["queue"]
        metric(
            "repro_queue_depth", "gauge",
            "Jobs waiting or running (queued + leased).",
            [({}, queue.get("depth", 0))],
        )
        metric(
            "repro_jobs", "gauge", "Jobs by state.",
            [({"state": s}, n) for s, n in sorted(queue.get("states", {}).items())],
        )
        metric(
            "repro_jobs_by_kind", "gauge", "Jobs by kind and state.",
            [
                ({"kind": kind, "state": s}, n)
                for kind, states in sorted(queue.get("kinds", {}).items())
                for s, n in sorted(states.items())
                if n
            ],
        )
        metric(
            "repro_jobs_enqueued_total", "counter", "Jobs ever enqueued.",
            [({}, queue.get("enqueued_total", 0))],
        )
        metric(
            "repro_jobs_retried_total", "counter",
            "Retry deliveries (nack backoffs + expired-lease re-queues).",
            [({}, queue.get("retried_total", 0))],
        )
        metric(
            "repro_job_attempts_total", "counter", "Lease attempts ever made.",
            [({}, queue.get("attempts_total", 0))],
        )

        for name, key, help_ in (
            ("repro_analysis_latency_seconds", "latency",
             "Run latency of finished jobs (recent window)."),
            ("repro_queue_wait_seconds", "queue_wait",
             "Enqueue to last lease of finished jobs (recent window)."),
        ):
            summary = snap[key]
            metric(
                name, "summary", help_,
                [
                    ({"quantile": "0.5"}, summary["p50_seconds"]),
                    ({"quantile": "0.99"}, summary["p99_seconds"]),
                ],
            )
            lines.append(f"{name}_sum {_num(summary['sum_seconds'])}")
            lines.append(f"{name}_count {summary['count']}")

        cache = snap["cache"]
        if cache.get("enabled"):
            metric(
                "repro_cache_hits_total", "counter", "Artifact-cache hits.",
                [
                    ({"layer": "memory"}, cache["memory_hits"]),
                    ({"layer": "disk"}, cache["disk_hits"]),
                ],
            )
            metric(
                "repro_cache_misses_total", "counter", "Artifact-cache misses.",
                [({}, cache["misses"])],
            )
            metric(
                "repro_cache_discarded_total", "counter",
                "Disk entries discarded on load (any reason).",
                [({}, cache["discarded"])],
            )
            metric(
                "repro_cache_corrupt_discarded_total", "counter",
                "Disk entries discarded because their bytes were corrupt.",
                [({}, cache["corrupt_discarded"])],
            )
        metric(
            "repro_cache_hit_rate", "gauge",
            "Artifact-cache hits / lookups (0 when disabled).",
            [({}, cache.get("hit_rate", 0.0))],
        )

        workers = snap["workers"]
        metric(
            "repro_workers", "gauge", "Worker fleet by status.",
            [
                ({"status": "configured"}, workers["configured"]),
                ({"status": "alive"}, workers["alive"]),
            ],
        )
        metric(
            "repro_workers_respawned_total", "counter",
            "Workers respawned after a crash.",
            [({}, workers["respawned"])],
        )

        service = snap["service"]
        metric(
            "repro_uptime_seconds", "gauge", "Seconds since service start.",
            [({}, service["uptime_seconds"])],
        )
        if "requests_total" in service:
            metric(
                "repro_http_requests_total", "counter", "HTTP requests handled.",
                [({}, service["requests_total"])],
            )
            metric(
                "repro_warm_pipelines", "gauge", "Warm per-program pipelines.",
                [({}, service["warm_pipelines"])],
            )

        fuzz = snap.get("fuzz")
        if fuzz is not None:
            metric(
                "repro_fuzz_campaigns", "gauge",
                "Fuzzing campaigns in the store (running subset labeled).",
                [
                    ({"state": "all"}, fuzz["campaigns"]),
                    ({"state": "running"}, fuzz["running"]),
                ],
            )
            metric(
                "repro_fuzz_shards", "gauge", "Campaign shards by state.",
                [({"state": s}, n) for s, n in sorted(fuzz["shards"].items())],
            )
            metric(
                "repro_fuzz_cases_total", "counter",
                "Campaign case verdicts by status.",
                [
                    ({"status": s}, n)
                    for s, n in sorted(fuzz["tallies"].items())
                ],
            )
            metric(
                "repro_fuzz_reproducers_total", "counter",
                "Distinct violation reproducers persisted to the corpus.",
                [({}, fuzz["reproducers"])],
            )
            metric(
                "repro_fuzz_quarantined_total", "counter",
                "Poison cases dead-lettered into quarantine.",
                [({}, fuzz["quarantined"])],
            )
            metric(
                "repro_fuzz_buckets", "gauge",
                "Distinct coverage buckets observed.",
                [({}, fuzz["buckets"])],
            )

        res = snap["resilience"]
        metric(
            "repro_analysis_timeouts_total", "counter",
            "Jobs whose last failure was an analysis deadline.",
            [({}, res["timeouts"])],
        )
        metric(
            "repro_analysis_timeout_dead_total", "counter",
            "Jobs dead-lettered after exhausting the deadline retry.",
            [({}, res["timeout_dead"])],
        )
        metric(
            "repro_degraded_results_total", "counter",
            "Done jobs that returned a gracefully degraded result.",
            [({}, res["degraded"])],
        )
        metric(
            "repro_faults_armed", "gauge",
            "Whether seeded fault injection is armed in this process.",
            [({}, res["faults_armed"])],
        )
        fired = sorted(res["faults"].items())
        if fired:
            metric(
                "repro_faults_injected_total", "counter",
                "Injected faults fired, by point and mode.",
                [
                    (
                        {
                            "point": key.rsplit(":", 1)[0],
                            "mode": key.rsplit(":", 1)[1],
                        },
                        count,
                    )
                    for key, count in fired
                ],
            )
        return "\n".join(lines) + "\n"


def _summary(sample: "list[float]") -> dict:
    """Count, mean, p50, p99, max and sum of a seconds sample."""
    return {
        "count": len(sample),
        "mean_seconds": (sum(sample) / len(sample)) if sample else 0.0,
        "p50_seconds": percentile(sample, 0.50),
        "p99_seconds": percentile(sample, 0.99),
        "max_seconds": max(sample) if sample else 0.0,
        "sum_seconds": sum(sample),
    }


def _num(value) -> str:
    """Prometheus number formatting: integers stay integral."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


__all__ = ["ServiceMetrics", "percentile"]
