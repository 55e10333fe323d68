"""Tests for the analysis service layer: artifact cache, batch executor,
HTTP server, and the canonical program form that content-addresses it all."""

import io
import json
import multiprocessing
import os
import pickle
import pickletools
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro import (
    AnalysisOptions,
    AnalysisPipeline,
    ArtifactCache,
    analyze,
    parse_program,
    run_batch,
)
from repro.lang.printer import canonical_program
from repro.service.cache import program_key
from repro.service.server import make_server

RDWALK = """
func rdwalk() pre(x < d + 2) begin
  if x < d then
    t ~ uniform(-1, 2);
    x := x + t;
    call rdwalk;
    tick(1)
  fi
end

func main() pre(d > 0) begin
  x := 0;
  call rdwalk
end
"""

SIMPLE = """
func main() pre(d > 0) begin
  x := 0;
  while x < d inv(x < d + 1) do
    tick(1);
    x := x + 1
  od
end
"""

#: Fails deterministically in the static stage, on every backend.
BROKEN = """
func main() begin
  call missing
end
"""

OPTS = AnalysisOptions(
    moment_degree=2, objective_valuations=({"d": 10.0, "x": 0.0, "t": 0.0},)
)


# ---------------------------------------------------------------------------
# Canonical form / content addressing
# ---------------------------------------------------------------------------


class TestCanonicalForm:
    def test_canonical_is_a_parse_fixpoint(self):
        program = parse_program(RDWALK)
        text = canonical_program(program)
        assert canonical_program(parse_program(text)) == text

    def test_declaration_order_does_not_change_the_address(self):
        a = "func helper() begin tick(1) end\n\nfunc main() begin call helper end"
        b = "func main() begin call helper end\n\nfunc helper() begin tick(1) end"
        assert program_key(parse_program(a)) == program_key(parse_program(b))

    def test_full_float_precision_is_preserved(self):
        a = parse_program("func main() begin tick(0.1234567891234) end")
        b = parse_program("func main() begin tick(0.1234567891235) end")
        # %g-style display formatting would collide these two programs.
        assert f"{0.1234567891234:g}" == f"{0.1234567891235:g}"
        assert program_key(a) != program_key(b)

    def test_no_exponent_notation_in_canonical_floats(self):
        import re

        program = parse_program("func main() begin tick(0.0000001) end")
        text = canonical_program(program)
        assert re.search(r"\de[+-]?\d", text) is None  # repr would say 1e-07
        assert canonical_program(parse_program(text)) == text

    def test_different_programs_different_addresses(self):
        assert program_key(parse_program(RDWALK)) != program_key(parse_program(SIMPLE))

    def test_every_registry_program_roundtrips(self):
        """The process executor ships canonical text to workers; every
        registered benchmark must survive the trip."""
        from repro.programs import registry

        for name in sorted(registry.all_benchmarks()):
            text = canonical_program(registry.parsed(name))
            assert canonical_program(parse_program(text)) == text, name


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_memory_roundtrip_and_option_sensitivity(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("ab" * 32, "stage", (1, 2), {"x": 1})
        assert cache.get("ab" * 32, "stage", (1, 2)) == {"x": 1}
        assert cache.stats.memory_hits == 1
        assert cache.get("ab" * 32, "stage", (1, 3)) is None
        assert cache.get("ba" * 32, "stage", (1, 2)) is None
        assert cache.stats.misses == 2

    def test_disk_shared_between_instances(self, tmp_path):
        ArtifactCache(tmp_path).put("cd" * 32, "stage", (), [1, 2, 3])
        fresh = ArtifactCache(tmp_path)
        assert fresh.get("cd" * 32, "stage", ()) == [1, 2, 3]
        assert fresh.stats.disk_hits == 1

    def test_corrupted_disk_entry_is_discarded_not_fatal(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("ef" * 32, "stage", (), "payload")
        (entry,) = list(cache.directory.rglob("*.pkl"))
        entry.write_bytes(b"\x80\x04 this is not a pickle")
        fresh = ArtifactCache(tmp_path)
        assert fresh.get("ef" * 32, "stage", ()) is None
        assert fresh.stats.discarded == 1
        assert not entry.exists(), "corrupt entry should be unlinked"
        # The slot is usable again.
        fresh.put("ef" * 32, "stage", (), "payload")
        assert ArtifactCache(tmp_path).get("ef" * 32, "stage", ()) == "payload"

    def test_truncated_disk_entry_is_discarded(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("aa" * 32, "stage", (), list(range(1000)))
        (entry,) = list(cache.directory.rglob("*.pkl"))
        entry.write_bytes(entry.read_bytes()[:20])
        assert ArtifactCache(tmp_path).get("aa" * 32, "stage", ()) is None

    def test_foreign_pickle_is_discarded(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("bb" * 32, "stage", (), "x")
        (entry,) = list(cache.directory.rglob("*.pkl"))
        entry.write_bytes(pickle.dumps({"not": "an entry"}))
        fresh = ArtifactCache(tmp_path)
        assert fresh.get("bb" * 32, "stage", ()) is None
        assert fresh.stats.discarded == 1

    def test_memory_lru_eviction(self, tmp_path):
        cache = ArtifactCache(tmp_path, disk=False, memory_entries=2)
        for i in range(3):
            cache.put("ab" * 32, "stage", (i,), i)
        assert cache.stats.evictions == 1
        assert cache.get("ab" * 32, "stage", (0,)) is None  # evicted
        assert cache.get("ab" * 32, "stage", (2,)) == 2

    def test_memory_only_mode_writes_nothing(self, tmp_path):
        cache = ArtifactCache(disk=False)
        assert cache.directory is None
        cache.put("ab" * 32, "stage", (), "x")
        assert cache.get("ab" * 32, "stage", ()) == "x"


# ---------------------------------------------------------------------------
# Pipeline + cache integration
# ---------------------------------------------------------------------------


class TestCachedPipeline:
    def test_warm_pipeline_hits_disk_and_matches_cold(self, tmp_path):
        cold_cache = ArtifactCache(tmp_path)
        cold = AnalysisPipeline(parse_program(RDWALK), artifacts=cold_cache).analyze(OPTS)
        assert cold_cache.stats.writes > 0
        # New cache instance + freshly parsed program = new session.
        warm_cache = ArtifactCache(tmp_path)
        warm = AnalysisPipeline(parse_program(RDWALK), artifacts=warm_cache).analyze(OPTS)
        assert warm_cache.stats.disk_hits >= 1
        assert warm_cache.stats.misses == 0
        assert warm.summary() == cold.summary()

    def test_contexts_loaded_from_disk_derive_like_fresh_ones(self, tmp_path):
        """New options re-derive from the static bundle another process
        left on disk: its context map must still find every node of the
        AST it was pickled with."""
        AnalysisPipeline(parse_program(RDWALK), artifacts=ArtifactCache(tmp_path)).analyze(OPTS)
        changed = AnalysisOptions(
            moment_degree=3, objective_valuations=OPTS.objective_valuations
        )
        cache = ArtifactCache(tmp_path)
        warm = AnalysisPipeline(parse_program(RDWALK), artifacts=cache).analyze(changed)
        assert cache.stats.disk_hits >= 1  # the static bundle among them
        fresh = analyze(parse_program(RDWALK), changed)
        assert warm.objective_values == fresh.objective_values
        assert [(i.lo, i.hi) for i in warm.raw_intervals()] == [
            (i.lo, i.hi) for i in fresh.raw_intervals()
        ]

    def test_option_change_misses_program_edit_misses(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        AnalysisPipeline(parse_program(RDWALK), artifacts=cache).analyze(OPTS)
        writes = cache.stats.writes

        # Any AnalysisOptions field change must produce a different address.
        for changed in (
            AnalysisOptions(moment_degree=1, objective_valuations=OPTS.objective_valuations),
            AnalysisOptions(moment_degree=2, template_degree=2,
                            objective_valuations=OPTS.objective_valuations),
            AnalysisOptions(moment_degree=2, upper_only=True,
                            objective_valuations=OPTS.objective_valuations),
            AnalysisOptions(moment_degree=2, lp_bound=1e9,
                            objective_valuations=OPTS.objective_valuations),
            AnalysisOptions(moment_degree=2,
                            objective_valuations=({"d": 11.0, "x": 0.0, "t": 0.0},)),
        ):
            before = cache.stats.writes
            AnalysisPipeline(parse_program(RDWALK), artifacts=cache).analyze(changed)
            assert cache.stats.writes > before, changed

        # A program edit changes the content address entirely.
        edited = RDWALK.replace("tick(1)", "tick(2)")
        before = cache.stats.writes
        AnalysisPipeline(parse_program(edited), artifacts=cache).analyze(OPTS)
        assert cache.stats.writes > before
        assert writes < cache.stats.writes

    def test_corrupted_entries_recompute_cleanly(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        expected = AnalysisPipeline(parse_program(SIMPLE), artifacts=cache).analyze(OPTS)
        for entry in cache.directory.rglob("*.pkl"):
            entry.write_bytes(b"garbage")
        fresh = ArtifactCache(tmp_path)
        again = AnalysisPipeline(parse_program(SIMPLE), artifacts=fresh).analyze(OPTS)
        assert fresh.stats.discarded > 0
        assert again.objective_values == pytest.approx(expected.objective_values)

    def test_uncached_pipeline_unchanged(self):
        pipe = AnalysisPipeline(parse_program(RDWALK))
        assert pipe.artifacts is None
        result = pipe.analyze(OPTS)
        assert result.objective_values == pytest.approx(
            analyze(parse_program(RDWALK), OPTS).objective_values
        )


def _numpy_references(blob: bytes) -> list[str]:
    """Strings of a pickle that name a numpy module: a ``GLOBAL``'s
    ``module name`` argument, or the module pushed for a ``STACK_GLOBAL``."""
    return [
        arg for _, arg, _ in pickletools.genops(blob)
        if isinstance(arg, str) and arg.split(" ")[0].split(".")[0] == "numpy"
    ]


class TestPlainArtifacts:
    def test_results_and_valuations_pickle_no_numpy(self, tmp_path):
        """A cache hit reads these two stages back; a numpy scalar in
        either would load numpy on every warm ``repro analyze``."""
        from repro.cli import run
        from repro.programs import registry
        from repro.programs.synthetic import coupon_chain

        # The registry at its registered options.
        batch = ["batch", "--cache-dir", str(tmp_path), "--quiet"]
        assert run(batch, out=io.StringIO()) == 0
        cache = ArtifactCache(tmp_path)
        # Automatic valuations: the Chebyshev point comes off HiGHS.
        AnalysisPipeline(coupon_chain(4), artifacts=cache).analyze(
            AnalysisOptions(moment_degree=4)
        )
        AnalysisPipeline(parse_program(RDWALK), artifacts=cache).analyze(
            replace(OPTS, lexicographic=False)
        )
        scanned = {}
        for stage in ("result", "valuations"):
            paths = list(cache.directory.rglob(f"{stage}-*.pkl"))
            scanned[stage] = len(paths)
            for path in paths:
                assert _numpy_references(path.read_bytes()) == [], path
        # The last analysis shares its valuations with the registry's rdwalk.
        analyses = len(registry.all_benchmarks()) + 2
        assert scanned == {"result": analyses, "valuations": analyses - 1}


def _warm_in_child(directory: str) -> None:
    cache = ArtifactCache(directory)
    AnalysisPipeline(parse_program(SIMPLE), artifacts=cache).analyze(OPTS)


class TestCrossProcessCache:
    def test_disk_cache_shared_across_two_processes(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_warm_in_child, args=(str(tmp_path),))
        child.start()
        child.join(timeout=120)
        assert child.exitcode == 0
        cache = ArtifactCache(tmp_path)
        result = AnalysisPipeline(parse_program(SIMPLE), artifacts=cache).analyze(OPTS)
        assert cache.stats.disk_hits >= 1
        assert cache.stats.misses == 0
        assert result.objective_values == pytest.approx(
            analyze(parse_program(SIMPLE), OPTS).objective_values
        )


# ---------------------------------------------------------------------------
# Batch executor
# ---------------------------------------------------------------------------


class TestBatchExecutor:
    def _workload(self):
        return {
            "rdwalk": (parse_program(RDWALK), OPTS),
            "simple": (parse_program(SIMPLE), OPTS),
        }

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_executors_agree_and_preserve_order(self, jobs, tmp_path):
        cache = ArtifactCache(tmp_path)
        report = run_batch(self._workload(), jobs=jobs, cache=cache)
        assert report.ok
        assert report.jobs == jobs
        assert [item.name for item in report.items] == ["rdwalk", "simple"]
        sequential = {
            name: analyze(program, opts)
            for name, (program, opts) in self._workload().items()
        }
        for item in report.items:
            assert (
                item.result.objective_values == sequential[item.name].objective_values
            ), item.name

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_per_program_error_isolation(self, jobs):
        workload = {
            "good": (parse_program(SIMPLE), OPTS),
            "bad": (parse_program(BROKEN), OPTS),
            "also-good": (parse_program(RDWALK), OPTS),
        }
        report = run_batch(workload, jobs=jobs)
        assert not report.ok
        assert [item.name for item in report.items] == ["good", "bad", "also-good"]
        assert report.items[0].ok and report.items[2].ok
        failed = report.items[1]
        assert not failed.ok and failed.result is None
        assert failed.error.startswith("ValidationError: ")
        assert list(report.results) == ["good", "also-good"]

    def test_accepts_pairs_and_default_options(self):
        program = parse_program(RDWALK)
        report = run_batch(
            [("a", program), ("b", program)],
            options=AnalysisOptions(moment_degree=1),
            jobs=2,
        )
        assert list(report.results) == ["a", "b"]
        assert report.results["a"].raw.degree == 1

    def test_workers_never_exceed_programs(self):
        report = run_batch({"simple": parse_program(SIMPLE)}, options=OPTS, jobs=4)
        assert report.ok and report.jobs == 1

    def test_process_workers_share_the_disk_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        run_batch(self._workload(), jobs=2, cache=cache)
        _, disk_entries = cache.entry_count()
        assert disk_entries > 0
        # Second batch in fresh workers: everything is already derived.
        fresh = ArtifactCache(tmp_path)
        report = run_batch(self._workload(), jobs=2, cache=fresh)
        assert report.ok
        _, disk_after = cache.entry_count()
        assert disk_after == disk_entries

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -1):
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                run_batch({}, jobs=jobs)


def _last_line_of(code: str, cwd) -> str:
    """Last line ``code`` prints in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


class TestForkSites:
    """Importing the fleet or the executor loads no stage module, and both
    load them before forking, so every worker starts with them loaded."""

    def test_worker_pool_loads_the_stages_before_forking(self, tmp_path):
        db = str(tmp_path / "jobs.sqlite3")
        assert _last_line_of(
            "import sys\n"
            "from repro.service.jobs import WorkerPool\n"
            "unloaded = 'numpy' not in sys.modules\n"
            f"WorkerPool({db!r}, workers=1).start().stop()\n"
            "print(unloaded, 'repro.analysis.transformer' in sys.modules)\n",
            tmp_path,
        ) == "True True"

    def test_process_batch_loads_the_stages_before_forking(self, tmp_path):
        assert _last_line_of(
            "import sys\n"
            "from repro.analysis.pipeline import AnalysisOptions\n"
            "from repro.lang.parser import parse_program\n"
            "from repro.service.executor import run_batch\n"
            "unloaded = 'numpy' not in sys.modules\n"
            f"program = parse_program({SIMPLE!r})\n"
            "report = run_batch({'a': program, 'b': program},\n"
            "                   options=AnalysisOptions(moment_degree=1), jobs=2)\n"
            "print(unloaded, report.ok, report.jobs,\n"
            "      'repro.analysis.transformer' in sys.modules)\n",
            tmp_path,
        ) == "True True 2 True"


# ---------------------------------------------------------------------------
# HTTP server
# ---------------------------------------------------------------------------


@pytest.fixture()
def served(tmp_path):
    cache = ArtifactCache(tmp_path)
    server = make_server(port=0, cache=cache)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, cache
    server.shutdown()
    server.server_close()


def _post(server, path: str, body: dict):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=json.dumps(body).encode()
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def _post_bad_content_length(server):
    """POST /analyze with a non-integer Content-Length header (no body)."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
    try:
        conn.putrequest("POST", "/analyze")
        conn.putheader("Content-Length", "ten")
        conn.endheaders()
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _get(server, path: str):
    port = server.server_address[1]
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestServer:
    def test_analyze_matches_the_cli_path_byte_for_byte(self, served, tmp_path):
        import io

        from repro.cli import run

        server, _ = served
        source_path = tmp_path / "prog.appl"
        source_path.write_text(SIMPLE)
        out = io.StringIO()
        code = run(
            ["analyze", str(source_path), "--at", "d=10,x=0",
             "--cache-dir", str(tmp_path)],
            out=out,
        )
        assert code == 0

        body = {"program": SIMPLE, "options": {"moments": 2, "at": {"d": 10, "x": 0}}}
        status, raw, _headers = _post(server, "/analyze", body)
        assert status == 200
        assert json.loads(raw)["summary"] + "\n" == out.getvalue()

    def test_concurrent_identical_requests_identical_bytes(self, served):
        server, _ = served
        body = {"program": RDWALK, "options": {"moments": 2, "at": {"d": 10, "x": 0, "t": 0}}}
        with ThreadPoolExecutor(max_workers=4) as pool:
            answers = list(
                pool.map(lambda _: _post(server, "/analyze", body), range(6))
            )
        assert all(status == 200 for status, _, _ in answers)
        assert len({raw for _, raw, _ in answers}) == 1
        warm_flags = {headers["X-Repro-Warm"] for _, _, headers in answers}
        assert "true" in warm_flags  # later requests hit the warm pipeline

    def test_check_endpoint_round_trip(self, served):
        server, _ = served
        spec = (
            "@at d=10, x=0, t=0\n"
            "E[cost] in [19, 41]\n"
            "stddev(cost) <= 17\n"
            "P(cost >= 200) <= 0.05\n"
        )
        body = {"program": RDWALK, "spec": spec}
        status, raw, headers = _post(server, "/check", body)
        assert status == 200
        payload = json.loads(raw)
        assert payload["ok"] and payload["verdict"] == "pass"
        verdicts = [a["verdict"] for a in payload["check"]["assertions"]]
        assert verdicts == ["pass", "pass", "pass"]
        assert headers["X-Repro-Warm"] == "false"

        # Identical request: same bytes off the warm pipeline.
        status, again, headers = _post(server, "/check", body)
        assert status == 200 and again == raw
        assert headers["X-Repro-Warm"] == "true"

    def test_check_endpoint_error_statuses(self, served):
        server, _ = served
        status, raw, _ = _post(server, "/check", {"program": RDWALK})
        assert status == 400 and "spec" in json.loads(raw)["error"]
        status, raw, _ = _post(
            server, "/check", {"spec": "E[cost] <= 1"}
        )
        assert status == 400 and "program" in json.loads(raw)["error"]
        status, raw, _ = _post(
            server, "/check", {"program": RDWALK, "spec": "E[cost] <= <="}
        )
        assert status == 400 and "spec" in json.loads(raw)["error"]
        status, raw, _ = _post(
            server, "/check", {"program": BROKEN, "spec": "E[cost] <= 1"}
        )
        assert status == 422 and "ValidationError" in json.loads(raw)["error"]

    def test_batch_endpoint_isolates_errors(self, served):
        server, _ = served
        status, raw, _ = _post(
            server,
            "/batch",
            {"programs": {"good": SIMPLE, "bad": BROKEN}, "options": {"moments": 1}},
        )
        assert status == 200
        payload = json.loads(raw)
        assert payload["ok"] is False
        # No fleet: the handler thread analyzes one program after another.
        assert payload["queued"] is False and payload["jobs"] == 1
        by_name = {item["name"]: item for item in payload["items"]}
        assert by_name["good"]["ok"] and "summary" in by_name["good"]
        assert not by_name["bad"]["ok"] and "ValidationError" in by_name["bad"]["error"]

    def test_health_and_cache_stats(self, served):
        server, cache = served
        status, health = _get(server, "/health")
        assert status == 200 and health["status"] == "ok"
        assert "backends" not in health and "highs" not in health
        _post(server, "/analyze", {"program": SIMPLE, "options": {"moments": 1}})
        status, stats = _get(server, "/cache/stats")
        assert status == 200 and stats["enabled"]
        assert stats["directory"] == str(cache.directory)
        assert stats["writes"] > 0
        assert stats["warm_pipelines"] == 1

    def test_kept_alive_connection_is_not_delayed(self, served):
        """Headers and body go out in two sends; without TCP_NODELAY the
        body waits for the client's delayed ACK (~40 ms) on every request
        of a kept-alive connection."""
        import http.client
        import statistics
        import time

        server, _ = served
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10
        )
        latencies = []
        try:
            for _ in range(10):
                started = time.perf_counter()
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                latencies.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.020, latencies

    def test_error_statuses(self, served):
        server, _ = served
        status, raw, _ = _post(server, "/analyze", {"program": "not appl"})
        assert status == 400 and "parse" in json.loads(raw)["error"]
        status, raw, _ = _post(server, "/analyze", {"options": {}})
        assert status == 400
        status, raw, _ = _post(server, "/analyze", {"program": SIMPLE,
                                                    "options": {"bogus": 1}})
        assert status == 400 and "bogus" in json.loads(raw)["error"]
        # Flags are JSON booleans and degrees JSON integers; nothing is
        # coerced ("false" would otherwise run an upper-only analysis).
        for options, key in (
            ({"upper_only": "false"}, "upper_only"),
            ({"moments": 2.9}, "moments"),
        ):
            status, raw, _ = _post(
                server, "/analyze", {"program": SIMPLE, "options": options}
            )
            assert status == 400 and key in json.loads(raw)["error"], raw
        # The same holds for /batch's top-level fields; the fleet is sized
        # by ``repro serve --workers N``, never by the request body.
        for extra, key in (
            ({"jobs": 2}, "--workers"),
            ({"jobs": "2"}, "--workers"),
            ({"priority": 2.9}, "priority"),
            ({"priority": True}, "priority"),
            ({"dedupe": "false"}, "dedupe"),
            ({"timeout": 0}, "timeout"),
            ({"timeout": "5"}, "timeout"),
        ):
            status, raw, _ = _post(
                server, "/batch", {"programs": {"simple": SIMPLE}, **extra}
            )
            assert status == 400 and key in json.loads(raw)["error"], raw
        status, raw = _post_bad_content_length(server)
        assert status == 400 and "Content-Length" in json.loads(raw)["error"]
        status, raw, _ = _post(server, "/analyze", {"program": BROKEN})
        assert status == 422 and "ValidationError" in json.loads(raw)["error"]
        status, _ = _get(server, "/nope")
        assert status == 404

    def test_serve_cli_wiring(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--cache-dir", "/tmp/x", "--max-pipelines", "4"]
        )
        assert args.command == "serve"
        assert args.port == 0 and args.max_pipelines == 4
