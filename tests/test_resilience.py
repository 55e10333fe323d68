"""Deadline propagation, seeded fault injection, graceful degradation.

Covers the resilience layer end to end:

* :mod:`repro.deadline` — token arithmetic, per-stage timings, the
  context-variable scope, and the byte-identity guarantee (a generous
  deadline changes nothing about the produced bounds);
* :mod:`repro.faults` — the ``REPRO_FAULTS`` grammar, per-seed
  determinism, the unarmed no-op, and single-byte corruption;
* the pipeline degradation ladder — fallback to the highest fully-solved
  moment degree, ``degraded`` provenance, never-cached degraded copies,
  and the policy evaluator mapping missing-moment assertions on degraded
  results to ``inconclusive``;
* the queue's timeout ladder — options round-trip for
  ``deadline``/``degrade``, the half-deadline retry
  (:func:`repro.service.jobs.effective_options`), dead-letter on the
  second timeout, and the heartbeat runtime cap that un-wedges hung jobs;
* the artifact cache's corrupt-entry accounting
  (``corrupt_discarded``) under both real and injected corruption;
* the differential harness's ``analysis-timeout`` outcome.
"""

import copy
import time
import types

import pytest

from repro import faults
from repro.analysis.pipeline import AnalysisOptions, AnalysisPipeline
from repro.deadline import (
    AnalysisTimeout,
    Deadline,
    current_deadline,
    deadline_scope,
)
from repro.policy.evaluate import INCONCLUSIVE, evaluate_spec
from repro.policy.parser import parse_spec
from repro.programs import registry
from repro.service.cache import ArtifactCache
from repro.service.jobs import (
    JobFailure,
    RequestError,
    WorkerPool,
    effective_options,
    execute_job,
    options_from_dict,
    options_to_dict,
)
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


@pytest.fixture(autouse=True)
def disarm_faults():
    """Every test starts and ends with fault injection disarmed."""
    faults.configure("")
    yield
    faults.configure("")


# ---------------------------------------------------------------------------
# Deadline tokens
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_remaining_clamps_at_zero(self):
        deadline = Deadline(0.01)
        time.sleep(0.03)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        assert deadline.elapsed() >= 0.01

    def test_fresh_token_has_full_budget(self):
        deadline = Deadline(60.0)
        assert not deadline.expired()
        assert 0.0 < deadline.remaining() <= 60.0
        deadline.check("derive")  # plenty of budget: no raise
        assert "derive" in deadline.timings

    def test_check_raises_with_stage_and_timings(self):
        deadline = Deadline(0.005)
        deadline.mark("derive")
        time.sleep(0.02)
        with pytest.raises(AnalysisTimeout) as excinfo:
            deadline.check("solve")
        err = excinfo.value
        assert err.stage == "solve"
        assert "analysis deadline exceeded" in str(err)
        assert "solve" in str(err)
        assert set(err.timings) == {"derive", "solve"}
        assert err.seconds >= 0.005

    def test_timings_accumulate_per_stage(self):
        deadline = Deadline(60.0)
        deadline.mark("solve")
        first = deadline.timings["solve"]
        time.sleep(0.005)
        deadline.mark("solve")
        assert deadline.timings["solve"] > first

    def test_scope_nesting_and_explicit_clearing(self):
        assert current_deadline() is None
        outer = Deadline(60.0)
        inner = Deadline(30.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
            # None explicitly clears the outer scope (the degradation
            # ladder relies on this to give each rung a fresh budget).
            with deadline_scope(None):
                assert current_deadline() is None
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_timeout_is_not_an_lp_error(self):
        # The restart ladder retries LPError; an exhausted budget must
        # never be retried at the same degree.
        from repro.lp.core import LPError

        assert not issubclass(AnalysisTimeout, LPError)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


class TestFaults:
    def test_unarmed_is_a_noop(self):
        assert not faults.armed()
        faults.check("lp.solve")  # no raise
        data = b"untouched"
        assert faults.corrupt("cache.write", data) is data
        assert faults.counters() == {}

    def test_grammar_rejects_bad_specs(self):
        for bad in (
            "nonsense",
            "cache.read:raise:1",  # wrong arity
            "unknown.point:raise:1:0",
            "cache.read:frobnicate:1:0",
            "cache.read:raise:1.5:0",  # prob out of range
        ):
            with pytest.raises(ValueError):
                faults.configure(bad)

    def test_raise_mode_fires_and_counts(self):
        faults.configure("lp.solve:raise:1:0")
        assert faults.armed()
        with pytest.raises(faults.FaultInjected):
            faults.check("lp.solve")
        faults.check("cache.read")  # other points untouched
        assert faults.counters() == {"lp.solve:raise": 1}

    def test_delay_mode_sleeps(self):
        faults.configure("pipeline.stage:delay@0.02:1:0")
        started = time.perf_counter()
        faults.check("pipeline.stage")
        assert time.perf_counter() - started >= 0.02
        assert faults.counters() == {"pipeline.stage:delay": 1}

    def test_same_seed_same_firing_sequence(self):
        def pattern():
            faults.configure("store.tx:raise:0.5:1234")
            fired = []
            for _ in range(64):
                try:
                    faults.check("store.tx")
                    fired.append(False)
                except faults.FaultInjected:
                    fired.append(True)
            return fired

        first, second = pattern(), pattern()
        assert first == second
        assert any(first) and not all(first)  # prob 0.5 actually mixes

    def test_corrupt_flips_exactly_one_byte(self):
        data = bytes(range(64))

        def corrupted():
            faults.configure("cache.write:corrupt:1:7")
            return faults.corrupt("cache.write", data)

        out = corrupted()
        assert len(out) == len(data)
        diffs = [i for i, (a, b) in enumerate(zip(data, out)) if a != b]
        assert len(diffs) == 1
        assert out[diffs[0]] == data[diffs[0]] ^ 0xFF
        assert corrupted() == out  # same seed, same byte
        assert faults.counters() == {"cache.write:corrupt": 1}

    def test_corrupt_specs_do_not_fire_on_check(self):
        faults.configure("cache.write:corrupt:1:7")
        faults.check("cache.write")  # corrupt mode only applies to data
        assert faults.counters() == {}

    def test_forked_child_gets_free_fault_locks(self):
        """A fleet worker forked while a handler thread draws from an
        armed spec's RNG must still visit that fault point."""
        import multiprocessing

        faults.configure("cache.read:raise:0.5:7")
        (spec,) = faults._specs["cache.read"]
        ctx = multiprocessing.get_context("fork")
        with spec.lock:
            child = ctx.Process(target=_visit_cache_read)
            child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


def _visit_cache_read():
    try:
        faults.check("cache.read")
    except faults.FaultInjected:
        pass


# ---------------------------------------------------------------------------
# Parity and the degradation ladder
# ---------------------------------------------------------------------------


class TestDeadlineParity:
    def test_generous_deadline_is_byte_identical(self):
        program = registry.all_benchmarks()["absynth-ber"].parse()
        plain = AnalysisPipeline(program).analyze(
            AnalysisOptions(moment_degree=2)
        )
        deadlined = AnalysisPipeline(program).analyze(
            AnalysisOptions(moment_degree=2, deadline_seconds=300.0)
        )

        def bounds(result):
            # Everything but wall-clock timings, which vary run to run.
            def strip(value):
                if isinstance(value, dict):
                    return {
                        k: strip(v)
                        for k, v in value.items()
                        if "seconds" not in k
                    }
                return value

            return strip(result.to_dict())

        assert bounds(plain) == bounds(deadlined)
        assert "degraded" not in deadlined.to_dict()

    def test_tiny_deadline_raises_typed_timeout(self):
        program = registry.all_benchmarks()["absynth-ber"].parse()
        with pytest.raises(AnalysisTimeout) as excinfo:
            AnalysisPipeline(program).analyze(
                AnalysisOptions(moment_degree=2, deadline_seconds=1e-4)
            )
        assert "analysis deadline exceeded" in str(excinfo.value)


class TestDegradationLadder:
    @pytest.fixture()
    def timeout_above_degree_one(self, monkeypatch):
        """Force AnalysisTimeout for every attempt above moment degree 1."""
        real = AnalysisPipeline._deadlined_analyze

        def fake(self, options):
            if options.moment_degree >= 2:
                raise AnalysisTimeout("solve", 1.0, lex_completed=1)
            return real(self, options)

        monkeypatch.setattr(AnalysisPipeline, "_deadlined_analyze", fake)

    def test_falls_back_to_highest_solved_degree(self, timeout_above_degree_one):
        program = registry.all_benchmarks()["absynth-ber"].parse()
        pipeline = AnalysisPipeline(program)
        options = AnalysisOptions(moment_degree=3, degrade=True)
        result = pipeline.analyze(options)
        assert result.degraded == {
            "requested_degree": 3,
            "degree": 1,
            "cause": "AnalysisTimeout",
            "error": result.degraded["error"],
        }
        assert "analysis deadline exceeded" in result.degraded["error"]
        assert result.raw.degree == 1
        assert result.to_dict()["degraded"]["degree"] == 1

    def test_without_degrade_the_timeout_propagates(
        self, timeout_above_degree_one
    ):
        program = registry.all_benchmarks()["absynth-ber"].parse()
        with pytest.raises(AnalysisTimeout):
            AnalysisPipeline(program).analyze(AnalysisOptions(moment_degree=3))

    def test_degraded_results_are_never_cached(self, timeout_above_degree_one):
        program = registry.all_benchmarks()["absynth-ber"].parse()
        pipeline = AnalysisPipeline(program)
        options = AnalysisOptions(moment_degree=3, degrade=True)
        first = pipeline.analyze(options)
        second = pipeline.analyze(options)
        # Both calls ran the ladder (the requested-degree key is never
        # poisoned with the degraded copy), and each returns its own copy.
        assert first is not second
        assert first.degraded is not None and second.degraded is not None
        key = options.result_key(pipeline._objective_valuations(options))
        assert key not in pipeline._results

    def test_exhausted_ladder_reraises_the_cause(self, monkeypatch):
        def always_timeout(self, options):
            raise AnalysisTimeout("solve", 1.0, lex_completed=0)

        monkeypatch.setattr(
            AnalysisPipeline, "_deadlined_analyze", always_timeout
        )
        program = registry.all_benchmarks()["absynth-ber"].parse()
        with pytest.raises(AnalysisTimeout):
            AnalysisPipeline(program).analyze(
                AnalysisOptions(moment_degree=3, degrade=True)
            )

    def test_policy_maps_missing_degraded_moments_to_inconclusive(self):
        from repro.lang.parser import parse_program
        from repro.tail.bounds import costs_nonnegative

        program = parse_program(SIMPLE)
        result = AnalysisPipeline(program).analyze(
            AnalysisOptions(
                moment_degree=2, objective_valuations=({"d": 4.0, "x": 0.0},)
            )
        )
        degraded = copy.copy(result)
        degraded.degraded = {
            "requested_degree": 4,
            "degree": 2,
            "cause": "AnalysisTimeout",
            "error": "analysis deadline exceeded after 1.000s",
        }
        spec = parse_spec("@at d=4, x=0\nE[cost^4] <= 1e9\n")
        check = evaluate_spec(
            spec,
            degraded,
            program="simple",
            nonnegative_cost=costs_nonnegative(program),
        )
        (outcome,) = check.outcomes
        # A degraded analysis never upgrades a missing moment to a pass.
        assert outcome.verdict == INCONCLUSIVE
        assert outcome.evidence["degraded"]["degree"] == 2
        assert "degraded to 2 of 4 requested moments" in outcome.reason


# ---------------------------------------------------------------------------
# Queue: options round-trip, the half-deadline retry, heartbeat cap
# ---------------------------------------------------------------------------


class TestQueueTimeoutLadder:
    def test_options_roundtrip_deadline_and_degrade(self):
        options = options_from_dict(
            {"moments": 2, "deadline": 2.5, "degrade": True}
        )
        assert options.deadline_seconds == 2.5
        assert options.degrade is True
        encoded = options_to_dict(options)
        assert encoded["deadline"] == 2.5
        assert encoded["degrade"] is True
        assert options_from_dict(encoded) == options
        # Unset stays unset (and absent from the wire form).
        bare = options_from_dict({"moments": 1})
        assert bare.deadline_seconds is None and bare.degrade is False
        assert "deadline" not in options_to_dict(bare)
        assert "degrade" not in options_to_dict(bare)

    def test_bad_deadline_is_rejected_up_front(self):
        for bad in (0, -1.0, "soon"):
            with pytest.raises(RequestError):
                options_from_dict({"deadline": bad})

    def test_effective_options_halves_after_a_timeout(self):
        options = options_from_dict({"moments": 1, "deadline": 4.0})
        fresh = types.SimpleNamespace(error=None)
        assert effective_options(fresh, options) is options
        unrelated = types.SimpleNamespace(error="LPInfeasibleError: nope")
        assert effective_options(unrelated, options) is options
        timed_out = types.SimpleNamespace(
            error="AnalysisTimeout: analysis deadline exceeded after 4.001s "
            "(at stage 'solve')"
        )
        retry = effective_options(timed_out, options)
        assert retry.deadline_seconds == 2.0
        # No deadline set: nothing to halve, even after a timeout.
        plain = options_from_dict({"moments": 1})
        assert effective_options(timed_out, plain) is plain

    def test_execute_job_timeout_is_retryable_once(self, tmp_path):
        store = JobStore(
            tmp_path / "jobs.sqlite3",
            visibility=5.0,
            retry_base=0.01,
            retry_cap=0.05,
        )
        payload = {
            "program": SIMPLE,
            "options": {"moments": 2, "deadline": 1e-4},
        }
        job_id, _ = store.enqueue(payload, kind="analyze", max_attempts=5)

        job = store.lease("worker-a")
        assert job is not None and job.id == job_id
        with pytest.raises(JobFailure) as excinfo:
            execute_job(job)
        first = excinfo.value
        assert first.retryable
        assert "analysis deadline exceeded" in str(first)
        store.nack(job.id, "worker-a", error=str(first))

        deadline = time.time() + 10.0
        redelivered = None
        while redelivered is None and time.time() < deadline:
            redelivered = store.lease("worker-b")
            if redelivered is None:
                time.sleep(0.02)
        assert redelivered is not None
        # The redelivery carries the timeout marker and runs at half the
        # deadline; a second timeout dead-letters.
        assert "analysis deadline exceeded" in redelivered.error
        halved = effective_options(
            redelivered, options_from_dict(payload["options"])
        )
        assert halved.deadline_seconds == pytest.approx(5e-5)
        with pytest.raises(JobFailure) as excinfo:
            execute_job(redelivered)
        assert not excinfo.value.retryable

    def test_hung_job_lease_expires_past_the_runtime_cap(self, tmp_path):
        """Satellite regression: a job whose payload ``timeout`` is smaller
        than its runtime stops heartbeating, loses its lease, and is
        re-delivered — no SIGKILL required."""
        db = tmp_path / "jobs.sqlite3"
        fast_store = JobStore(db, visibility=0.4)
        job_id, _ = fast_store.enqueue(
            {"seconds": 30.0, "timeout": 0.3}, kind="sleep"
        )
        pool = WorkerPool(db, 1, visibility=0.4, poll=0.05)
        pool.start()
        try:
            deadline = time.time() + 15.0
            while (
                fast_store.get(job_id).state != "leased"
                and time.time() < deadline
            ):
                time.sleep(0.02)
            assert fast_store.get(job_id).state == "leased"
            # Past the cap the heartbeat stops extending: the lease expires
            # on its own and the job is re-delivered.  The hung *process*
            # is still sleeping, so stand in as the successor worker.
            deadline = time.time() + 15.0
            successor = None
            while successor is None and time.time() < deadline:
                successor = fast_store.lease("successor")
                if successor is None:
                    time.sleep(0.05)
            job = fast_store.get(job_id)
            assert job.attempts >= 2 and job.retries >= 1
        finally:
            pool.stop(graceful=False, timeout=10.0)

    def test_repeatedly_hung_job_dead_letters_on_recovery(self, tmp_path):
        """A job whose lease keeps expiring must not ping-pong between
        stuck workers forever: one grace delivery past the attempt
        budget, then the recovery path dead-letters it."""
        store = JobStore(tmp_path / "jobs.sqlite3", visibility=0.05)
        job_id, _ = store.enqueue({"seconds": 9.0}, kind="sleep", max_attempts=1)
        assert store.lease("w1", visibility=0.05).id == job_id
        time.sleep(0.1)
        # Crash grace: the exhausted job still re-delivers once.
        grace = store.lease("w2", visibility=0.05)
        assert grace is not None and grace.attempts == 2
        time.sleep(0.1)
        # The grace delivery hung too: recovery dead-letters, not re-queues.
        assert store.lease("w3") is None
        final = store.get(job_id)
        assert final.state == "dead"
        assert "presumed hung" in final.error


# ---------------------------------------------------------------------------
# Cache corruption accounting
# ---------------------------------------------------------------------------


class TestCacheCorruption:
    def _one_entry(self, directory):
        cache = ArtifactCache(directory)
        cache.put("ab" * 32, "result", (), {"value": 41})
        (path,) = [p for p in directory.rglob("*.pkl")]
        return path

    def test_flipped_byte_counts_as_corrupt(self, tmp_path):
        path = self._one_entry(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        fresh = ArtifactCache(tmp_path)  # cold memory: must hit disk
        assert fresh.get("ab" * 32, "result", ()) is None
        stats = fresh.stats.snapshot()
        assert stats["discarded"] == 1
        assert stats["corrupt_discarded"] == 1
        assert not path.exists()  # the bad entry is dropped for rewrite

    def test_injected_write_corruption_is_caught_on_read(self, tmp_path):
        # Seed 0 flips a payload byte; the entry unpickles wrong (or not at
        # all) and counts as corrupt.  (Some seeds land on the version
        # field instead, which deliberately classifies as clean skew.)
        faults.configure("cache.write:corrupt:1:0")
        self._one_entry(tmp_path)
        assert faults.counters() == {"cache.write:corrupt": 1}
        faults.configure("")
        fresh = ArtifactCache(tmp_path)
        assert fresh.get("ab" * 32, "result", ()) is None
        assert fresh.stats.snapshot()["corrupt_discarded"] == 1

    def test_injected_read_fault_degrades_to_a_miss(self, tmp_path):
        self._one_entry(tmp_path)
        faults.configure("cache.read:raise:1:0")
        fresh = ArtifactCache(tmp_path)
        assert fresh.get("ab" * 32, "result", ()) is None
        assert fresh.stats.snapshot()["misses"] == 1
        faults.configure("")
        # The entry itself is intact: undisturbed reads still hit.
        assert ArtifactCache(tmp_path).get("ab" * 32, "result", ()) == {
            "value": 41
        }

    def test_corrupt_discarded_reaches_the_stats_surfaces(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert "corrupt_discarded" in cache.describe()  # GET /cache/stats
        from repro.service.metrics import ServiceMetrics

        snap = ServiceMetrics(cache=cache).snapshot()
        assert snap["cache"]["corrupt_discarded"] == 0
        text = ServiceMetrics(cache=cache).render_prometheus()
        assert "repro_cache_corrupt_discarded_total 0" in text


# ---------------------------------------------------------------------------
# Durable resilience counters
# ---------------------------------------------------------------------------


class TestResilienceTotals:
    def test_totals_derive_from_job_rows(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3", visibility=5.0)
        timeout_error = (
            "AnalysisTimeout: analysis deadline exceeded after 1.000s "
            "(at stage 'solve')"
        )
        # A done job carrying degraded provenance.
        store.enqueue({}, kind="sleep")
        job = store.lease("w")
        store.ack(
            job.id, "w", {"ok": True, "result": {"degraded": {"degree": 1}}}
        )
        # A timeout with its retry still pending.
        store.enqueue({}, kind="sleep")
        job = store.lease("w")
        store.nack(job.id, "w", timeout_error)
        # A second timeout dead-letters.
        store.enqueue({}, kind="sleep")
        job = store.lease("w")
        store.nack(job.id, "w", timeout_error, retryable=False)
        # An unrelated failure counts in none of the buckets.
        store.enqueue({}, kind="sleep")
        job = store.lease("w")
        store.nack(job.id, "w", "LPInfeasibleError: nope", retryable=False)

        assert store.resilience_totals() == {
            "timeouts": 2,
            "timeout_dead": 1,
            "degraded": 1,
        }

        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics(store=store)
        assert metrics.snapshot()["resilience"]["timeouts"] == 2
        text = metrics.render_prometheus()
        assert "repro_analysis_timeouts_total 2" in text
        assert "repro_analysis_timeout_dead_total 1" in text
        assert "repro_degraded_results_total 1" in text


# ---------------------------------------------------------------------------
# Differential harness: the analysis-timeout outcome
# ---------------------------------------------------------------------------


class TestDifferentialTimeout:
    def test_over_deadline_case_classifies_as_analysis_timeout(self):
        from repro.programs.fuzz import generate_corpus
        from repro.soundness.differential import (
            ANALYSIS_TIMEOUT,
            STATUSES,
            DifferentialConfig,
            check_case,
        )

        assert ANALYSIS_TIMEOUT == "analysis-timeout"
        assert ANALYSIS_TIMEOUT in STATUSES
        (case,) = generate_corpus(1, seed=0)
        outcome = check_case(
            case, DifferentialConfig(deadline_seconds=1e-4, samples=50)
        )
        assert outcome.status == ANALYSIS_TIMEOUT
        assert "analysis deadline exceeded" in outcome.detail

    def test_no_deadline_config_is_unchanged(self):
        from repro.soundness.differential import DifferentialConfig, _case_options

        assert DifferentialConfig().deadline_seconds is None
        from repro.programs.fuzz import generate_corpus

        (case,) = generate_corpus(1, seed=0)
        assert _case_options(case).deadline_seconds is None
