"""End-to-end benchmark of ``repro analyze``, ``repro serve`` and the job
queue, with a per-layer span breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the analyzer is imported from ``src/``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (each ``{"value", "unit"}``).
The line before it is the run record: the environment (core count, commit,
python/numpy/scipy/highspy versions), the sample counts, the tail
percentiles, and the first failures.

Workloads (inputs come from ``perfbench/reference.json``, drawn by seed):

* ``cli-oneshot`` — cold-process ``python -m repro analyze FILE --moments m
  ...``, one child at a time: the fig10 grid at m=4 plus 8 registry programs.
  Each pass runs every program cold (no cache), then warm (a ``--cache-dir``
  filled during set-up).
* ``serve-mix`` — a closed-loop client against ``repro serve --workers 0``,
  one connection per request: 80% POST /analyze and 10% POST /check on the
  hot set (registry + fig10, warmed during set-up), 10% POST /analyze on
  fuzz programs new to the run (from the lighter 70% of the pool).
* ``queue-open`` — an open loop of 8 jobs/s of fuzz programs through POST
  /jobs to ``repro serve --workers 2 --db``; the client polls
  GET /jobs/{id}/result.  Latency counts from each job's due time.

End-to-end metrics (``--trace 0``), per workload:

=================  ===============  ================  ==================
metric             cli-oneshot      serve-mix         queue-open
=================  ===============  ================  ==================
p50_s, tail_s      cold CLI call    any request       due → result
fast_p50_s         warm CLI call    hot-set request   result poll
throughput_per_s   CLI calls/s      requests/s        results/s
setup_s            inputs + fill    spawn → healthy   spawn → healthy
                   warm cache       + warm hot set
peak_rss_mb        largest child    server            server + workers
=================  ===============  ================  ==================

``tail_s`` is the highest percentile (0.1 steps, at most 99.9) with at
least 10 samples beyond it, or the maximum below 20 samples; the record
names it.  cli-oneshot runs whole passes, at least two, until ``--seconds``
have passed.
``setup_s`` is the median of three set-ups in the run.  Failed operations
(an error, a timeout, a non-2xx answer, an E[C] or V[C] interval missing its
reference band, warm output differing from cold) are ``failed``.

Per-layer metrics (``--trace 1``; a metric that does not apply to the
workload reads 0):

* ``*.busy_s``, ``cache.get_s``, ``cache.put_s`` — span self times of the
  functions ``spans.TARGETS`` wraps, summed; ``parse/highs/check.calls``
  count those spans.
* ``entail.*`` — ``_entails_cached.cache_info()``: misses are LP calls.
* ``derive.lp_rows/lp_cols`` — sizes of the LPs derived; ``presolve.*`` —
  the reduction layer's eliminated columns and blocks.
* ``cache.*`` — ``ArtifactCache.stats``; ``bytes_written`` is what the run's
  cache holds on disk.
* ``server.handler_s`` — mean handler span; ``server.transport_s`` — mean
  client latency minus it.
* ``queue.*`` — medians from the job rows (enqueue → lease → finish →
  client has the result), mean attempts; ``loadgen.*`` — how late the open
  loop sent.
* ``import.*`` — ``python -X importtime -c "import repro.cli"`` (median of
  three): ``repro``'s import in total, ``scipy.optimize`` cumulative, and
  the self time of ``repro``'s own modules.
* ``trace.coverage`` (cli-oneshot) — share of the traced analysis wall time
  (top-level parse and analyze spans) the layers' self times account for.

``--trace 1`` runs the same measurement untraced, then again with every
analyzer process started through ``bootstrap.py``, which records spans
around each layer's public functions (see ``spans.py``), and reports the
per-layer metrics.  Traced bounds must equal the untraced ones;
``trace.overhead_s`` is the difference of the two runs' ``p50_s``.  Busy
times are span self times; counters of a server cover its whole life,
set-up included.  ``queue.*`` come from the job rows of the untraced run.
"""

from __future__ import annotations

import argparse
import http.client
import json
import shutil
import signal
import sqlite3
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import harness as h
import spans

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
PY = sys.executable
SETUPS = 3
MIN_PASSES = 2  # every run samples each cli-oneshot program at least twice
#: serve-mix clients.  With two, a warm request's latency depends on how
#: often it overlaps a cold analysis holding the server's interpreter lock:
#: on a 2-core VM the same seed gave a hot-set p50 of 2.9 ms and 3.5 ms in
#: two runs, too unsteady to gate on; one client gave 1.4 ms (p10-p90
#: 1.1-2.0 ms).
CLIENTS = 1
QUEUE_RATE = 8.0
QUEUE_WORKERS = 2
RESULT_POLL_S = 0.05

END_TO_END = {
    "p50_s": "s", "tail_s": "s", "fast_p50_s": "s", "throughput_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "import.total_s": "s", "import.scipy_optimize_s": "s", "import.repro_own_s": "s",
    "parse.calls": "count", "parse.busy_s": "s",
    "contexts.busy_s": "s", "entail.lp_calls": "count", "entail.hit_ratio": "ratio",
    "derive.busy_s": "s", "derive.lp_rows": "count", "derive.lp_cols": "count",
    "presolve.busy_s": "s", "presolve.cols_eliminated": "count", "presolve.blocks": "count",
    "highs.calls": "count", "highs.busy_s": "s",
    "resolve.busy_s": "s",
    "check.calls": "count", "check.busy_s": "s",
    "cache.get_s": "s", "cache.put_s": "s", "cache.hit_ratio": "ratio",
    "cache.disk_hits": "count", "cache.bytes_written": "bytes",
    "server.handler_s": "s", "server.transport_s": "s",
    "queue.wait_s": "s", "queue.run_s": "s", "queue.result_lag_s": "s",
    "queue.attempts": "count",
    "loadgen.late_p50_s": "s", "loadgen.late_max_s": "s",
    "trace.overhead_s": "s", "trace.coverage": "ratio",
}


class Run:
    """State of one benchmark run: inputs, temp dir, live servers, failures."""

    def __init__(self, args, tmp: Path) -> None:
        self.seed, self.seconds, self.trace = args.seed, args.seconds, args.trace
        self.tmp = tmp
        self.env = h.child_env(ROOT, tmp)
        self.programs = h.load_reference()
        self.attempted = 0
        self.failures: list[str] = []
        self.servers: list[h.Server] = []
        self.record: dict = {}
        self.layers: dict = {}
        self._lock = threading.Lock()

    def check(self, what: str, error: "str | None") -> None:
        """Count one checked operation; ``error`` (why it failed) or None."""
        with self._lock:
            self.attempted += 1
            if error is not None:
                self.failures.append(f"{what}: {error}")

    def repro(self, traced: bool, spans_file: "Path | None" = None) -> list[str]:
        """Command prefix of an analyzer process, traced or not."""
        if traced:
            return [PY, str(HERE / "bootstrap.py"), "--trace", str(spans_file), "--"]
        return [PY, "-m", "repro"]

    def start_server(self, tag: str, args: list[str], traced: bool = False) -> h.Server:
        spans_file = self.tmp / f"spans-{tag}.json"
        server = h.Server(
            self.repro(traced, spans_file) + ["serve", "--port", "0", *args],
            self.env, self.tmp, self.tmp / f"server-{tag}.log",
        )
        self.servers.append(server)
        server.wait_healthy()
        return server

    def stop_server(self, server: h.Server) -> None:
        server.stop()
        self.servers.remove(server)


def _cache_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*.pkl")) if directory.exists() else 0


def _load_dumps(paths: list[Path]) -> list[dict]:
    return [json.loads(p.read_text()) for p in paths if p.exists()]


def import_breakdown(run: Run) -> dict:
    """``-X importtime`` of ``import repro.cli`` in a fresh process (median
    of three): the total, the cumulative cost of ``scipy.optimize``, and the
    self time of ``repro``'s own modules."""
    samples = []
    for _ in range(SETUPS):
        proc = subprocess.run(
            [PY, "-X", "importtime", "-c", "import repro.cli"],
            env=run.env, cwd=run.tmp, capture_output=True, text=True, timeout=120,
        )
        run.check("import repro.cli", None if proc.returncode == 0 else proc.stderr[-500:])
        samples.append(parse_importtime(proc.stderr))
    return {key: h.median([s[key] for s in samples]) for key in samples[0]}


def parse_importtime(stderr: str) -> dict:
    total = scipy_optimize = own = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].rstrip()
        module = name.strip()
        is_repro = module == "repro" or module.startswith("repro.")
        if is_repro and name == " " + module:  # top level of the import tree
            total += cumulative_us
        if is_repro:
            own += self_us
        if module == "scipy.optimize" and not scipy_optimize:
            scipy_optimize = cumulative_us
    return {
        "import.total_s": total / 1e6,
        "import.scipy_optimize_s": scipy_optimize / 1e6,
        "import.repro_own_s": own / 1e6,
    }


def span_layers(run: Run, dumps: list[dict], window=None) -> dict:
    layers = spans.layer_metrics(dumps, window)
    counters = spans.sum_counters(dumps)
    hits, misses = counters.get("entail.hits", 0), counters.get("entail.misses", 0)
    cache_hits = counters.get("cache.memory_hits", 0) + counters.get("cache.disk_hits", 0)
    cache_lookups = cache_hits + counters.get("cache.misses", 0)
    run.layers.update({
        key: layers[key] for key in PER_LAYER if key in layers
    })
    run.layers.update({
        "entail.lp_calls": misses,
        "entail.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "derive.lp_rows": counters.get("derive.lp_rows", 0),
        "derive.lp_cols": counters.get("derive.lp_cols", 0),
        "presolve.cols_eliminated": counters.get("presolve.cols_eliminated", 0),
        "presolve.blocks": counters.get("presolve.blocks", 0),
        "cache.hit_ratio": cache_hits / cache_lookups if cache_lookups else 0.0,
        "cache.disk_hits": counters.get("cache.disk_hits", 0),
    })
    return layers


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------


def cli_oneshot(run: Run) -> dict:
    names = h.cli_programs(run.seed, run.programs)
    setups = []
    for i in range(SETUPS):
        start = time.perf_counter()
        inputs = run.tmp / f"inputs-{i}"
        inputs.mkdir()
        files = {}
        for name in names:
            files[name] = str(inputs / f"{name}.appl")
            Path(files[name]).write_text(run.programs[name]["source"])
        cache = run.tmp / f"cli-cache-{i}"
        commands = run.tmp / f"fill-{i}.json"
        commands.write_text(json.dumps(
            [h.cli_argv(files[n], run.programs[n], str(cache)) for n in names]
        ))
        fill = h.run_child([PY, str(HERE / "bootstrap.py"), "--many", str(commands)],
                           run.env, run.tmp)
        run.check("fill warm cache", None if fill.code == 0 else fill.stderr[-500:])
        setups.append(time.perf_counter() - start)

    def one(name: str, warm: bool, traced: bool, tag: str):
        spans_file = run.tmp / f"spans-{tag}-{name}.json"
        argv = run.repro(traced, spans_file) + h.cli_argv(
            files[name], run.programs[name], str(cache) if warm else None
        )
        result = h.run_child(argv, run.env, run.tmp)
        what = f"{'warm' if warm else 'cold'} {name}"
        if result.code != 0:
            run.check(what, f"exit {result.code}: {result.stderr[-500:]}")
        else:
            run.check(what, h.check_cli_output(result.stdout, run.programs[name]))
        return result, spans_file

    def one_pass(traced: bool, tag: str):
        cold, warm = {}, {}
        for name in names:
            cold[name] = one(name, False, traced, f"{tag}-cold")
        for name in names:
            warm[name] = one(name, True, traced, f"{tag}-warm")
            same = h.strip_timing(warm[name][0].stdout) == h.strip_timing(cold[name][0].stdout)
            run.check(f"warm {name} vs cold", None if same else "outputs differ")
        return cold, warm

    cold_s, warm_s, rss = [], [], []
    start = time.perf_counter()
    passes = []
    while len(passes) < MIN_PASSES or time.perf_counter() - start < run.seconds:
        cold, warm = one_pass(False, f"pass{len(passes)}")
        passes.append((cold, warm))
        for results in (cold, warm):
            rss += [r.maxrss_kb for r, _ in results.values()]
        cold_s += [r.wall for r, _ in cold.values()]
        warm_s += [r.wall for r, _ in warm.values()]
    elapsed = time.perf_counter() - start
    run.record["samples"] = {"cold": len(cold_s), "warm": len(warm_s)}
    p50 = h.median(cold_s)
    if run.trace:
        cold, warm = one_pass(True, "traced")
        base_cold, base_warm = passes[0]
        for label, traced_runs, base in (("cold", cold, base_cold), ("warm", warm, base_warm)):
            for name in names:
                same = h.strip_timing(traced_runs[name][0].stdout) == h.strip_timing(
                    base[name][0].stdout
                )
                run.check(f"traced {label} {name}", None if same else "bounds differ")
        dumps = _load_dumps([f for results in (cold, warm) for _, f in results.values()])
        run.layers["trace.coverage"] = span_layers(run, dumps)["coverage"]
        run.layers["trace.overhead_s"] = h.median([r.wall for r, _ in cold.values()]) - p50
        run.layers["cache.bytes_written"] = _cache_bytes(cache)
    pct, tail = h.tail(cold_s)
    run.record["tail_percentile"] = pct
    return {
        "p50_s": p50,
        "tail_s": tail,
        "fast_p50_s": h.median(warm_s),
        "throughput_per_s": (len(cold_s) + len(warm_s)) / elapsed,
        "setup_s": h.median(setups),
        "peak_rss_mb": max(rss) / 1024.0,
    }


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------


def _warm_hot_set(run: Run, server: h.Server) -> dict:
    """Analyze (and check) every hot-set program once, from as many clients
    as the measurement uses; the answers are what later identical requests
    must repeat byte for byte."""
    requests = [
        (endpoint, name)
        for name, entry in sorted(run.programs.items()) if entry["kind"] != "fuzz"
        for endpoint in (("/analyze", "/check") if "check" in entry else ("/analyze",))
    ]
    answers = {}

    def warm(share: list) -> None:
        for endpoint, name in share:
            entry = run.programs[name]
            status, body = server.call("POST", endpoint, h.request_body(endpoint, entry))
            run.check(f"warm {endpoint} {name}", h.check_response(status, body, endpoint, entry))
            answers[(endpoint, name)] = body

    threads = [
        threading.Thread(target=warm, args=(requests[i::CLIENTS],)) for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return answers


def _closed_loop(run: Run, server: h.Server, answers: dict) -> dict:
    sequence = h.serve_sequence(run.seed, run.programs)
    bodies = [h.request_body(ep, run.programs[name]) for ep, name in sequence]
    latencies: list[tuple[float, bool]] = []
    cursor = iter(range(len(sequence)))
    lock = threading.Lock()
    stop_at = time.perf_counter() + run.seconds

    def client_loop() -> None:
        while time.perf_counter() < stop_at:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            endpoint, name = sequence[i]
            hot = (endpoint, name) in answers
            started = time.perf_counter()
            try:
                status, body = server.call("POST", endpoint, bodies[i])
            except (OSError, http.client.HTTPException) as exc:
                run.check(f"{endpoint} {name}", f"{type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append((elapsed, hot))
            if hot:
                error = None if body == answers[(endpoint, name)] else "answer changed"
            else:
                error = h.check_response(status, body, endpoint, run.programs[name])
            run.check(f"{endpoint} {name}", error)

    window_start = time.perf_counter()
    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window_end = time.perf_counter()
    return {"latencies": latencies, "window": (window_start, window_end)}


def serve_mix(run: Run) -> dict:
    setups = []
    server = None
    for i in range(SETUPS):
        if server is not None:
            run.stop_server(server)
        start = time.perf_counter()
        server = run.start_server(
            f"mix{i}", ["--workers", "0", "--cache-dir", str(run.tmp / f"serve-cache-{i}")]
        )
        answers = _warm_hot_set(run, server)
        setups.append(time.perf_counter() - start)
    measured = _closed_loop(run, server, answers)
    rss_kb = server.peak_rss_kb()
    run.stop_server(server)
    everything = [lat for lat, _ in measured["latencies"]]
    hot = [lat for lat, is_hot in measured["latencies"] if is_hot]
    window = measured["window"]
    pct, tail = h.tail(everything)
    run.record.update(samples={"all": len(everything), "hot": len(hot)}, tail_percentile=pct)
    if run.trace:
        cache_dir = run.tmp / "serve-cache-traced"
        traced = run.start_server(
            "traced", ["--workers", "0", "--cache-dir", str(cache_dir)], traced=True
        )
        traced_answers = _warm_hot_set(run, traced)
        for key, body in answers.items():
            same = h.answer_without_timing(traced_answers[key]) == h.answer_without_timing(body)
            run.check(f"traced {key[0]} {key[1]}", None if same else "bounds differ")
        traced_measured = _closed_loop(run, traced, traced_answers)
        run.stop_server(traced)
        layers = span_layers(
            run, _load_dumps([run.tmp / "spans-traced.json"]), traced_measured["window"]
        )
        traced_lat = [lat for lat, _ in traced_measured["latencies"]]
        handler = layers["server.handler_total_s"] / max(1, layers["server.requests"])
        run.layers["server.handler_s"] = handler
        run.layers["server.transport_s"] = sum(traced_lat) / len(traced_lat) - handler
        run.layers["trace.overhead_s"] = h.median(traced_lat) - h.median(everything)
        run.layers["cache.bytes_written"] = _cache_bytes(cache_dir)
    return {
        "p50_s": h.median(everything),
        "tail_s": tail,
        "fast_p50_s": h.median(hot),
        "throughput_per_s": len(everything) / (window[1] - window[0]),
        "setup_s": h.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }


# ---------------------------------------------------------------------------
# queue-open
# ---------------------------------------------------------------------------


def _open_loop(run: Run, server: h.Server) -> dict:
    names = h.fresh_programs(run.seed, run.programs)
    start = time.perf_counter() + 0.05
    dues = [start + due for due in h.due_times(run.seed, QUEUE_RATE, run.seconds)]
    names = names[: len(dues)]
    bodies = [h.request_body("/jobs", run.programs[n]) for n in names]
    ids: dict[int, int] = {}
    poll_s: list[float] = []
    received: dict[int, tuple[float, float]] = {}  # i -> (perf_counter, wall clock)
    answers: dict[str, bytes] = {}
    pending: list[int] = []
    lock = threading.Lock()
    sending_done = threading.Event()

    def send(i: int) -> None:
        try:
            status, body = server.call("POST", "/jobs", bodies[i])
        except (OSError, http.client.HTTPException) as exc:
            run.check(f"enqueue {names[i]}", f"{type(exc).__name__}: {exc}")
            return
        if status != 202:
            run.check(f"enqueue {names[i]}", f"HTTP {status}: {body[:200]!r}")
            return
        ids[i] = json.loads(body)["id"]
        with lock:
            pending.append(i)

    def poll() -> None:
        give_up = dues[-1] + 120.0
        while time.perf_counter() < give_up:
            with lock:
                batch = list(pending)
            if not batch and sending_done.is_set():
                return
            for i in batch:
                started = time.perf_counter()
                try:
                    status, body = server.call("GET", f"/jobs/{ids[i]}/result")
                except (OSError, http.client.HTTPException):
                    continue  # polled again next sweep; no answer by the end fails
                poll_s.append(time.perf_counter() - started)
                if status == 202:
                    continue
                received[i] = (time.perf_counter(), time.time())
                answers[names[i]] = body
                with lock:
                    pending.remove(i)
                run.check(f"job {names[i]}",
                          h.check_response(status, body, "/jobs", run.programs[names[i]]))
            time.sleep(RESULT_POLL_S)
        for i in pending:
            run.check(f"job {names[i]}", "no result within 120 s of the last send")

    poller = threading.Thread(target=poll)
    poller.start()
    try:
        late = h.run_open_loop(dues, send)
    finally:
        sending_done.set()
        poller.join()
    latencies = [received[i][0] - dues[i] for i in sorted(received)]
    return {
        "latencies": latencies, "late": late, "poll_s": poll_s,
        "ids": ids, "received": received, "answers": answers,
        "span": max(r[0] for r in received.values()) - dues[0],
    }


def _job_answer(body: bytes) -> str:
    doc = json.loads(body)
    doc.pop("id", None)  # the store's row id, not part of the answer
    return h.answer_without_timing(json.dumps(doc).encode())


def _job_timeline(db: Path, measured: dict) -> dict:
    """``queue.*`` from the job rows: enqueue → lease → finish → seen."""
    conn = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
    try:
        rows = {
            row[0]: row[1:]
            for row in conn.execute(
                "SELECT id, attempts, enqueued_at, started_at, finished_at FROM jobs"
            )
        }
    finally:
        conn.close()
    wait, work, lag, attempts = [], [], [], []
    for i, job_id in measured["ids"].items():
        tries, enqueued, started, finished = rows[job_id]
        attempts.append(tries)
        if started is not None and finished is not None and i in measured["received"]:
            wait.append(started - enqueued)
            work.append(finished - started)
            lag.append(measured["received"][i][1] - finished)
    return {
        "queue.wait_s": h.median(wait),
        "queue.run_s": h.median(work),
        "queue.result_lag_s": h.median(lag),
        "queue.attempts": sum(attempts) / len(attempts),
    }


def _queue_server(run: Run, tag: str, traced: bool = False) -> tuple[h.Server, Path]:
    db = run.tmp / f"jobs-{tag}.sqlite3"
    server = run.start_server(tag, [
        "--workers", str(QUEUE_WORKERS), "--db", str(db),
        "--cache-dir", str(run.tmp / f"queue-cache-{tag}"),
    ], traced=traced)
    return server, db


def queue_open(run: Run) -> dict:
    setups = []
    server = None
    for i in range(SETUPS):
        if server is not None:
            run.stop_server(server)
        start = time.perf_counter()
        server, db = _queue_server(run, f"queue{i}")
        setups.append(time.perf_counter() - start)
    measured = _open_loop(run, server)
    rss_kb = server.peak_rss_kb()
    run.stop_server(server)
    latencies = measured["latencies"]
    pct, tail = h.tail(latencies)
    run.record.update(samples={"jobs": len(latencies)}, tail_percentile=pct)
    if run.trace:
        run.layers.update(_job_timeline(db, measured))
        run.layers["loadgen.late_p50_s"] = h.median(measured["late"])
        run.layers["loadgen.late_max_s"] = max(measured["late"])
        traced, _ = _queue_server(run, "traced", traced=True)
        traced_measured = _open_loop(run, traced)
        run.stop_server(traced)
        for name, body in traced_measured["answers"].items():
            if name in measured["answers"]:
                same = _job_answer(body) == _job_answer(measured["answers"][name])
                run.check(f"traced job {name}", None if same else "bounds differ")
        span_layers(run, _load_dumps([run.tmp / "spans-traced.json"]))
        run.layers["trace.overhead_s"] = h.median(traced_measured["latencies"]) - h.median(
            latencies
        )
        run.layers["cache.bytes_written"] = _cache_bytes(run.tmp / "queue-cache-traced")
    return {
        "p50_s": h.median(latencies),
        "tail_s": tail,
        "fast_p50_s": h.median(measured["poll_s"]),
        "throughput_per_s": len(latencies) / measured["span"],
        "setup_s": h.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }


WORKLOADS = {"cli-oneshot": cli_oneshot, "serve-mix": serve_mix, "queue-open": queue_open}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its servers and removes its temp dir.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run from a checkout root: no src/repro under {ROOT}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    run = Run(args, tmp)
    try:
        metrics = WORKLOADS[args.workload](run)
        if args.trace:
            run.layers.update(import_breakdown(run))
    finally:
        for server in list(run.servers):
            run.stop_server(server)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        values = {name: float(run.layers.get(name, 0.0)) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values, units = metrics, END_TO_END
    run.record.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        environment=h.environment(ROOT), failures=run.failures[:20],
    )
    print("record: " + json.dumps(run.record, sort_keys=True))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
