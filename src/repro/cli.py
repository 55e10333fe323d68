"""Command-line interface: ``python -m repro analyze program.appl``.

Mirrors the original tool's usage: the user supplies the program, the order
of the analyzed moment, and the maximal polynomial degree; the tool prints
symbolic interval bounds on the raw moments, derived central moments, and
optionally the Theorem 4.4 soundness report and a simulation cross-check.

``python -m repro batch`` runs the whole benchmark registry (optionally
filtered by name prefix) through the sharded batch executor
(:func:`repro.service.executor.run_batch`) and prints one summary row per
program; failed programs are reported inline and make the exit code
non-zero (``--quiet`` hides the success rows, never the failures).
``--executor queue`` routes the workload through the durable job store
instead of an in-process pool.  ``python -m repro serve`` starts the HTTP
JSON API (:mod:`repro.service.server`); with ``--workers N`` it also runs
the durable-queue worker fleet behind ``POST /jobs`` / ``GET /metrics``.

``python -m repro jobs enqueue|status|drain`` scripts the same job store
without HTTP: enqueue one analysis (``--dedupe`` for content-addressed
idempotency), inspect queue counts or one job's full row, or drain the
queue with an ephemeral worker fleet (:mod:`repro.service.jobs`).

``python -m repro fuzz`` runs the differential soundness harness
(:mod:`repro.soundness.differential`): generated Appl programs are analyzed
and simulated with the vectorized Monte-Carlo engine, every inferred moment
interval is checked to bracket its empirical estimate up to the CLT margin,
and violations exit non-zero with a minimized reproducer under ``--out``.
``--budget SECONDS`` is the nightly deep mode (fresh seeds until the budget
is spent); the default one-shot mode is the tier-1 corpus.

``python -m repro fuzz campaign start|resume|status|report`` scales the
same harness to a durable, crash-safe campaign over the SQLite job store
(:mod:`repro.soundness.campaign`): the seed range is sharded into queue
jobs with exactly-once accounting, violation reproducers land in a
content-addressed corpus before shards ack, worker-killing programs are
quarantined with provenance, and generation is reweighted toward
under-covered feature buckets.  ``resume`` after any crash replays only
unfinished shards, byte-identically.

``repro analyze --profile [N]`` runs each pipeline stage under ``cProfile``
and prints the top-N cumulative hotspots per stage, the LP reduction
layer's presolve statistics (columns eliminated by rule, rows
deduped/vacuous, component count and sizes, per-component solve times), and
the derivation-vs-solve wall-time split — the starting point for
performance work.  No flag or environment variable selects the LP path:
every command solves on the incremental HiGHS backend through the
reduction layer.

``--deadline SECONDS`` (``analyze``, ``fuzz``) caps analysis wall clock:
``analyze`` fails fast with an analysis-deadline error (exit code 2), or —
with ``--degrade`` — falls back to the highest fully-solved moment degree
and marks the result as degraded; ``fuzz`` classifies over-deadline cases
as ``analysis-timeout`` instead of stalling the corpus.  ``serve
--job-timeout SECONDS`` caps each queued job's runtime by letting a hung
job's lease expire for re-delivery (see :mod:`repro.service.jobs`).

``--cache-dir`` (``analyze``, ``batch``, ``serve``) attaches the
content-addressed artifact cache at the given directory, so repeated
analyses of unchanged programs — across commands, processes, and sessions —
reuse every derived stage.  ``serve`` defaults to the user cache directory
(``~/.cache/repro``); the one-shot commands default to no disk cache.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro import (
    AnalysisOptions,
    AnalysisPipeline,
    check_soundness,
    estimate_cost_statistics,
    parse_program,
)
from repro.deadline import AnalysisTimeout


def _parse_valuation(text: str) -> dict[str, float]:
    valuation: dict[str, float] = {}
    if not text:
        return valuation
    for piece in text.split(","):
        name, _, value = piece.partition("=")
        if not value:
            raise argparse.ArgumentTypeError(
                f"bad valuation entry {piece!r}; expected name=value"
            )
        valuation[name.strip()] = float(value)
    return valuation


def _add_cache_flag(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist analysis artifacts in a content-addressed cache at DIR "
        "(shared across processes and sessions)",
    )


def _make_cache(args, *, default_on: bool = False):
    from repro.service.cache import ArtifactCache

    if getattr(args, "no_cache", False):
        return None  # explicit opt-out wins over --cache-dir
    if args.cache_dir:
        return ArtifactCache(args.cache_dir)
    if default_on:
        return ArtifactCache()
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Central moment analysis for cost accumulators "
        "(Wang-Hoffmann-Reps, PLDI 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze_cmd = sub.add_parser("analyze", help="derive moment bounds")
    analyze_cmd.add_argument("file", help="Appl source file (- for stdin)")
    analyze_cmd.add_argument(
        "--moments", type=int, default=2, help="moment order m (default 2)"
    )
    analyze_cmd.add_argument(
        "--degree", type=int, default=1,
        help="template degree d: the k-th moment uses degree k*d polynomials",
    )
    analyze_cmd.add_argument(
        "--degree-cap", type=int, default=None,
        help="cap on any component's polynomial degree",
    )
    analyze_cmd.add_argument(
        "--at", type=_parse_valuation, default={},
        help="evaluation valuation, e.g. --at d=10,x=0",
    )
    analyze_cmd.add_argument(
        "--check", action="store_true",
        help="check the Theorem 4.4 soundness side conditions",
    )
    analyze_cmd.add_argument(
        "--simulate", type=int, default=0, metavar="N",
        help="cross-check with N Monte-Carlo runs",
    )
    analyze_cmd.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the analysis; past it the run fails "
        "with an AnalysisTimeout (or degrades, with --degrade)",
    )
    analyze_cmd.add_argument(
        "--degrade", action="store_true",
        help="on timeout or LP failure, fall back to the highest moment "
        "degree that fully solves instead of failing (the result carries "
        "a DEGRADED provenance line)",
    )
    analyze_cmd.add_argument(
        "--profile", nargs="?", const=10, type=int, default=None, metavar="N",
        help="run each pipeline stage under cProfile and print the top N "
        "cumulative hotspots per stage (default N=10) plus the "
        "derivation-vs-solve wall-time split",
    )
    _add_cache_flag(analyze_cmd)

    batch_cmd = sub.add_parser(
        "batch", help="analyze the benchmark registry concurrently"
    )
    batch_cmd.add_argument(
        "--prefix", default="",
        help="only run registry programs whose name starts with this",
    )
    batch_cmd.add_argument(
        "--moments", type=int, default=None,
        help="override the registered moment order",
    )
    batch_cmd.add_argument(
        "--jobs", "--workers", type=int, default=None, metavar="N", dest="jobs",
        help="number of concurrent analyses (default: min(8, #programs))",
    )
    batch_cmd.add_argument(
        "--executor", choices=("thread", "process", "queue"), default="thread",
        help="thread: overlap LP solves in one process; process: shard the "
        "workload across CPU cores (workers share --cache-dir); queue: "
        "enqueue durable jobs into a SQLite store drained by a worker "
        "fleet (--db joins an existing store, else an ephemeral one)",
    )
    batch_cmd.add_argument(
        "--db", default=None, metavar="PATH",
        help="queue executor: enqueue into this job store (a running "
        "'repro serve --workers N --db PATH' fleet drains it); default is "
        "an ephemeral store + fleet for just this batch",
    )
    batch_cmd.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="queue executor: give up waiting for the fleet after this long",
    )
    batch_cmd.add_argument(
        "--quiet", action="store_true",
        help="suppress per-program success rows; failures are still "
        "printed per program and the exit code is still non-zero",
    )
    _add_cache_flag(batch_cmd)

    check_cmd = sub.add_parser(
        "check",
        help="check tail-assertion specs against analyzer moment bounds",
        description="Parse a .spec file of assertions over the cost "
        "accumulator (moment intervals, tail probabilities, stddev, the "
        "timing-attack success rate), analyze the target program(s), and "
        "report a pass/fail/inconclusive verdict per assertion with the "
        "evidence (which inequality fired, at what moment order).",
    )
    check_cmd.add_argument(
        "target", nargs="?", default=None,
        help="Appl source file, '-' for stdin, or a registry program name "
        "(omitted in --suite mode)",
    )
    check_cmd.add_argument(
        "--spec", default=None, metavar="FILE",
        help="spec file to check the target against",
    )
    check_cmd.add_argument(
        "--suite", default=None, metavar="DIR",
        help="suite mode: check every *.spec under DIR against the "
        "registry programs its @programs directive names",
    )
    check_cmd.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a byte-stable machine-readable JSON report",
    )
    check_cmd.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on inconclusive verdicts too, not just failures",
    )
    check_cmd.add_argument(
        "--at", type=_parse_valuation, default=None,
        help="initial valuation override, e.g. --at d=10,x=0",
    )
    check_cmd.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="suite mode: number of concurrent analyses",
    )
    check_cmd.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="suite mode: batch executor (default thread)",
    )
    check_cmd.add_argument(
        "--verbose", action="store_true",
        help="suite mode: show per-assertion evidence for passing programs too",
    )
    _add_cache_flag(check_cmd)

    fuzz_cmd = sub.add_parser(
        "fuzz",
        help="differential soundness fuzzing (analyzer vs. vectorized MC)",
        description="Generate random well-formed Appl programs, analyze "
        "them, simulate them with the batched Monte-Carlo engine, and "
        "check that every inferred moment interval brackets its empirical "
        "estimate up to the CLT sampling-error margin.  Violations are "
        "minimized and dumped under --out; the exit code is non-zero iff "
        "any violation was found.",
    )
    fuzz_cmd.add_argument(
        "--seed", type=int, default=0, help="first generator seed (default 0)"
    )
    fuzz_cmd.add_argument(
        "--count", type=int, default=50,
        help="cases per batch (default 50); with --budget, batches of this "
        "size are generated at consecutive seeds until time runs out",
    )
    fuzz_cmd.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="deep mode: keep fuzzing fresh seeds until SECONDS have elapsed",
    )
    fuzz_cmd.add_argument(
        "--samples", type=int, default=4000,
        help="Monte-Carlo trajectories per case (default 4000)",
    )
    fuzz_cmd.add_argument(
        "--z", type=float, default=5.0,
        help="CLT sigma multiplier for the bracketing margin (default 5)",
    )
    fuzz_cmd.add_argument(
        "--max-steps", type=int, default=200_000,
        help="per-trajectory step budget before a run counts as a timeout",
    )
    fuzz_cmd.add_argument(
        "--out", default="fuzz-violations", metavar="DIR",
        help="directory for minimized violation reproducers "
        "(default ./fuzz-violations)",
    )
    fuzz_cmd.add_argument(
        "--no-minimize", action="store_true",
        help="dump violating programs as generated, without shrinking",
    )
    fuzz_cmd.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-case wall-clock deadline (analysis and simulation each); "
        "cases past it classify as analysis-timeout instead of stalling "
        "the corpus",
    )
    fuzz_cmd.add_argument(
        "--jobs", "--workers", type=int, default=None, metavar="N", dest="jobs",
        help="concurrent analyses (default: min(8, #cases))",
    )
    fuzz_cmd.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="fan the analysis phase out over threads or processes",
    )
    _add_cache_flag(fuzz_cmd)

    fuzz_sub = fuzz_cmd.add_subparsers(dest="fuzz_command", metavar="")
    campaign_cmd = fuzz_sub.add_parser(
        "campaign",
        help="durable crash-safe fuzzing campaigns over the job queue",
        description="Run a corpus-scale differential-soundness sweep as a "
        "durable campaign: the seed range is partitioned into shard jobs "
        "on the SQLite/WAL job store and executed by the worker fleet, "
        "with exactly-once shard accounting, content-addressed violation "
        "reproducers persisted before each shard acks, quarantine for "
        "programs that crash or OOM workers, and coverage-guided "
        "generation.  'start' creates and drives the campaign; 'resume' "
        "continues after any crash (only unfinished shards run); 'status' "
        "and 'report' inspect durable state without running anything.",
    )
    campaign_cmd.add_argument(
        "action", choices=("start", "resume", "status", "report"),
        help="lifecycle verb",
    )
    campaign_cmd.add_argument(
        "--db", required=True, metavar="PATH",
        help="SQLite job-store file (shared with the queue/fleet; campaign "
        "tables live in the same file)",
    )
    campaign_cmd.add_argument(
        "--name", default="default", help="campaign name (default 'default')"
    )
    campaign_cmd.add_argument(
        "--dir", default=None, metavar="DIR",
        help="campaign output directory for the reproducer corpus and "
        "quarantine dumps (default: <db>.campaigns/<name>)",
    )
    campaign_cmd.add_argument(
        "--seed", type=int, default=0, help="first generator seed (default 0)"
    )
    campaign_cmd.add_argument(
        "--seeds", type=int, default=500, dest="seed_count", metavar="N",
        help="total seeds in the campaign (default 500)",
    )
    campaign_cmd.add_argument(
        "--shard-size", type=int, default=25, metavar="N",
        help="seeds per shard job (default 25)",
    )
    campaign_cmd.add_argument(
        "--samples", type=int, default=2000,
        help="Monte-Carlo trajectories per case (default 2000)",
    )
    campaign_cmd.add_argument(
        "--z", type=float, default=5.0,
        help="CLT sigma multiplier for the bracketing margin (default 5)",
    )
    campaign_cmd.add_argument(
        "--max-steps", type=int, default=200_000,
        help="per-trajectory step budget before a run counts as a timeout",
    )
    campaign_cmd.add_argument(
        "--deadline", type=float, default=30.0, metavar="SECONDS",
        help="per-case analysis/simulation deadline (default 30)",
    )
    campaign_cmd.add_argument(
        "--minimize-seconds", type=float, default=60.0, metavar="SECONDS",
        help="wall-clock cap on one reproducer minimization (default 60)",
    )
    campaign_cmd.add_argument(
        "--max-rss-mb", type=int, default=None, metavar="MB",
        help="RSS rlimit applied to workers and quarantine probes",
    )
    campaign_cmd.add_argument(
        "--bias-fraction", type=float, default=0.5, metavar="F",
        help="fraction of each shard generated with the coverage bias",
    )
    campaign_cmd.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="fleet size while driving the campaign (default 2)",
    )
    campaign_cmd.add_argument(
        "--visibility", type=float, default=60.0, metavar="SECONDS",
        help="shard-job lease length; a crashed worker's shard is "
        "re-delivered after this long (default 60)",
    )
    campaign_cmd.add_argument(
        "--wave", type=int, default=None, metavar="N",
        help="shards enqueued per coverage wave (default 4x workers, min 8)",
    )
    campaign_cmd.add_argument(
        "--wave-timeout", type=float, default=900.0, metavar="SECONDS",
        help="max wait for one wave before the driver re-plans (default 900)",
    )
    campaign_cmd.add_argument(
        "--chaos-crash-seeds", default="", metavar="S1,S2",
        help="drill hook: case seeds that hard-kill their worker "
        "(exercises quarantine end to end)",
    )
    campaign_cmd.add_argument(
        "--chaos-oom-seeds", default="", metavar="S1,S2",
        help="drill hook: case seeds that raise MemoryError in the worker",
    )
    campaign_cmd.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the status/report document as JSON",
    )
    _add_cache_flag(campaign_cmd)

    serve_cmd = sub.add_parser(
        "serve", help="start the HTTP JSON analysis API"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8000, help="TCP port (0 picks a free one)"
    )
    serve_cmd.add_argument(
        "--max-pipelines", type=int, default=128, metavar="N",
        help="how many warm per-program pipelines to keep (LRU)",
    )
    serve_cmd.add_argument(
        "--no-cache", action="store_true",
        help="serve without the on-disk artifact cache (memory only)",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="size of the durable-queue worker fleet (0 = synchronous "
        "endpoints only, no /jobs)",
    )
    serve_cmd.add_argument(
        "--db", default=None, metavar="PATH",
        help="SQLite job-store path (default <cache dir>/jobs.sqlite3; "
        "giving --db without --workers enables the queue endpoints with "
        "an external fleet, e.g. 'repro jobs drain')",
    )
    serve_cmd.add_argument(
        "--visibility", type=float, default=60.0, metavar="SECONDS",
        help="job lease length: a crashed worker's job is re-delivered "
        "after this long without heartbeats (default 60)",
    )
    serve_cmd.add_argument(
        "--max-queued", type=int, default=None, metavar="N",
        help="backpressure: reject new jobs with HTTP 429 once the queue "
        "depth (queued + leased) reaches N (default unlimited)",
    )
    serve_cmd.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job runtime cap: past it the worker stops heartbeating "
        "so a hung job's lease expires and the job is re-delivered "
        "(a job payload's 'timeout' key overrides it; default uncapped)",
    )
    _add_cache_flag(serve_cmd)

    jobs_cmd = sub.add_parser(
        "jobs", help="inspect and drive the durable job queue"
    )
    jobs_sub = jobs_cmd.add_subparsers(dest="jobs_command", required=True)

    enq = jobs_sub.add_parser(
        "enqueue", help="add an analysis job to a job store"
    )
    enq.add_argument("file", help="Appl source file (- for stdin)")
    enq.add_argument("--db", required=True, metavar="PATH", help="job store")
    enq.add_argument("--moments", type=int, default=2)
    enq.add_argument("--degree", type=int, default=1)
    enq.add_argument(
        "--at", type=_parse_valuation, default={},
        help="evaluation valuation, e.g. --at d=10,x=0",
    )
    enq.add_argument("--priority", type=int, default=0)
    enq.add_argument(
        "--idempotency-key", default=None, metavar="KEY",
        help="at most one job ever exists per key; a duplicate enqueue "
        "returns the existing id",
    )
    enq.add_argument(
        "--dedupe", action="store_true",
        help="derive the idempotency key from the program + options content",
    )
    enq.add_argument("--max-attempts", type=int, default=3)
    enq.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its summary "
        "(exit 1 if it dead-letters)",
    )
    enq.add_argument("--timeout", type=float, default=600.0, metavar="SECONDS")

    status = jobs_sub.add_parser(
        "status", help="queue counts, or one job's full status"
    )
    status.add_argument("id", nargs="?", type=int, default=None)
    status.add_argument("--db", required=True, metavar="PATH")
    status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    drain = jobs_sub.add_parser(
        "drain", help="run an ephemeral worker fleet until the queue is empty"
    )
    drain.add_argument("--db", required=True, metavar="PATH")
    drain.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="fleet size for the drain (default 2)",
    )
    drain.add_argument(
        "--visibility", type=float, default=60.0, metavar="SECONDS",
        help="lease length while draining",
    )
    drain.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up (exit 1) if the queue is not empty after this long",
    )
    _add_cache_flag(drain)
    return parser


def _run_analyze(args, out) -> int:
    if args.file == "-":
        source = sys.stdin.read()
    else:
        with open(args.file) as handle:
            source = handle.read()
    program = parse_program(source)

    valuations = (args.at,) if args.at else None
    options = AnalysisOptions(
        moment_degree=args.moments,
        template_degree=args.degree,
        degree_cap=args.degree_cap,
        objective_valuations=valuations,
        deadline_seconds=args.deadline,
        degrade=args.degrade,
    )
    pipeline = AnalysisPipeline(program, artifacts=_make_cache(args))
    if args.profile is not None:
        result = _profiled_analyze(pipeline, options, args.profile, out)
    else:
        result = pipeline.analyze(options)
    print(result.summary(), file=out)

    if args.check:
        report = check_soundness(program, args.moments * args.degree)
        print(report.summary(), file=out)

    if args.simulate:
        stats = estimate_cost_statistics(
            program, n=args.simulate, seed=0, initial=args.at or None,
            degree=max(2, args.moments), engine="vectorized",
        )
        print(
            f"simulation ({stats.samples} runs): mean {stats.mean:.4g}, "
            f"variance {stats.central[2]:.4g}",
            file=out,
        )
    return 0


def _profiled_analyze(pipeline, options, top: int, out):
    """Run the pipeline stage by stage under cProfile (``--profile``).

    Perf work on the analyzer keeps re-deriving the same starting point —
    which stage dominates, and which functions inside it.  This prints, per
    stage (static/context/constraints/solve), the wall time and the top-N
    cumulative-time hotspots, so the next optimization PR starts from data
    instead of folklore.
    """
    import cProfile
    import io
    import pstats
    import time

    stages = [
        ("static", pipeline.static_info),
        ("context", pipeline.context_map),
        ("constraints", lambda: pipeline.constraint_system(options)),
        ("solve", lambda: pipeline.solve(options)),
    ]
    walls: dict[str, float] = {}
    for name, stage in stages:
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        staged = stage()
        profiler.disable()
        walls[name] = time.perf_counter() - start
        text = io.StringIO()
        stats = pstats.Stats(profiler, stream=text).sort_stats("cumulative")
        stats.print_stats(top)
        body = text.getvalue()
        # Drop pstats' preamble up to the table header; keep it compact.
        header = body.index("ncalls") if "ncalls" in body else 0
        print(f"--- profile: {name} stage ({walls[name]:.3f}s wall) ---", file=out)
        print(body[header:].rstrip() or "(nothing measurable)", file=out)
        if name == "solve":
            _print_reduction_stats(getattr(staged, "reduction", None), out)
    total = sum(walls.values())
    derivation = walls["static"] + walls["context"] + walls["constraints"]
    print(
        f"--- stage split: derivation {derivation:.3f}s "
        f"(static {walls['static']:.3f}s, context {walls['context']:.3f}s, "
        f"constraints {walls['constraints']:.3f}s), "
        f"solve {walls['solve']:.3f}s, total {total:.3f}s ---",
        file=out,
    )
    return pipeline.analyze(options)


def _print_reduction_stats(stats, out) -> None:
    """Presolve statistics of the LP reduction layer (``--profile``)."""
    if not stats:
        print(
            "--- lp reduction: unavailable (the reducer fell back to the "
            "direct backend for this system) ---",
            file=out,
        )
        return
    print(
        f"--- lp reduction: {stats['cols']}->{stats['reduced_cols']} cols, "
        f"{stats['rows']}->{stats['reduced_rows']} rows, "
        f"{stats['nnz']}->{stats['reduced_nnz']} nnz "
        f"({stats['presolve_seconds']:.3f}s presolve) ---",
        file=out,
    )
    print(
        f"columns eliminated: {stats['eliminated_cols']} "
        f"(fixed {stats['fixed_cols']}, implied-slack {stats['slack_cols']}, "
        f"free {stats['free_cols']}, zero {stats['zero_cols']}); "
        f"rows deduped: {stats['dup_rows']}, vacuous: {stats['vacuous_rows']}",
        file=out,
    )
    sizes = ", ".join(str(s) for s in stats["component_sizes"][:8])
    more = len(stats["component_sizes"]) - 8
    print(
        f"components: {stats['components']} (sizes {sizes}"
        + (f", +{more} more" if more > 0 else "")
        + ")",
        file=out,
    )
    times = stats.get("block_solve_seconds") or []
    if times:
        shown = ", ".join(f"block {bid}: {sec:.3f}s" for bid, sec in times[:8])
        print(f"last solve per-component times: {shown}", file=out)
    stacked = stats.get("stacked_groups") or 0
    if stacked:
        sizes = ", ".join(str(s) for s in stats.get("stacked_sizes", [])[:8])
        print(
            f"stacked batches: {stacked} (group sizes {sizes}) — same-shape "
            "blocks solved as one block-diagonal LP",
            file=out,
        )


def _run_batch(args, out) -> int:
    from repro.programs import registry

    workload = {}
    for name, bench in sorted(registry.all_benchmarks().items()):
        if not name.startswith(args.prefix):
            continue
        options = AnalysisOptions(
            moment_degree=args.moments or bench.moment_degree,
            template_degree=bench.template_degree,
            degree_cap=bench.degree_cap,
            objective_valuations=(bench.valuation,) + tuple(bench.extra_valuations),
        )
        workload[name] = (registry.parsed(name), options)
    if not workload:
        print(f"no registry programs match prefix {args.prefix!r}", file=out)
        return 1

    from repro.service.executor import run_batch

    store = None
    if args.executor == "queue" and args.db:
        from repro.service.store import JobStore

        store = JobStore(args.db)
    report = run_batch(
        workload,
        jobs=args.jobs,
        executor=args.executor,
        cache=_make_cache(args),
        store=store,
        timeout=getattr(args, "timeout", 600.0),
    )

    width = max(len(item.name) for item in report.items)
    quiet = getattr(args, "quiet", False)
    if not quiet:
        print(
            f"{'program':<{width}} {'E[C] interval':>26} {'V[C] hi':>12} "
            f"{'LP vars':>8} {'time (s)':>9}",
            file=out,
        )
    for item in report.items:
        if not item.ok:
            # Structured per-program failures are *always* surfaced — even
            # under --quiet a failing batch must say which program failed
            # and why, and exit non-zero, exactly like a transport error.
            print(f"{item.name:<{width}} FAILED: {item.error}", file=out)
            continue
        if quiet:
            continue
        print(_batch_row(item, width), file=out)
    failed = report.failures
    print(
        f"{len(report.items)} programs in {report.elapsed:.2f}s "
        f"(executor={report.executor}, jobs={report.jobs}"
        + (f", {len(failed)} failed" if failed else "")
        + ")",
        file=out,
    )
    return 1 if failed else 0


def _batch_row(item, width: int) -> str:
    """One success row of the batch table, whichever executor ran it.

    Thread/process executors hand back the in-memory result object; the
    queue executor hands back the worker's JSON document (the result never
    leaves the store as an object) — both carry the same numbers.
    """
    if item.result is not None:
        result = item.result
        interval = result.raw_interval(1)
        lo, hi = interval.lo, interval.hi
        var_hi = result.variance().hi if result.raw.degree >= 2 else None
        lp_vars = result.lp_variables
        seconds = result.solve_seconds
    else:
        doc = (item.payload or {}).get("result", {})
        evaluated = doc.get("evaluated", {})
        lo, hi = evaluated.get("E[C^1]", [float("nan")] * 2)
        var = evaluated.get("V[C]")
        var_hi = var[1] if var else None
        lp_vars = doc.get("lp_variables", 0)
        seconds = item.seconds
    line = f"{item.name:<{width}} [{lo:>11.4g}, {hi:>11.4g}]"
    line += f" {var_hi:>12.4g}" if var_hi is not None else f" {'-':>12}"
    line += f" {lp_vars:>8} {seconds:>9.3f}"
    return line


def _run_check(args, out) -> int:
    from repro.policy.evaluate import FAIL, INCONCLUSIVE, evaluate_spec
    from repro.policy.parser import parse_spec
    from repro.policy.report import (
        check_to_dict,
        render_check,
        render_suite,
        suite_to_dict,
        to_json,
    )
    from repro.policy.suite import load_suite, options_for, run_suite
    from repro.tail.bounds import costs_nonnegative

    if args.suite is not None:
        if args.target is not None or args.spec is not None:
            print("--suite does not take a target or --spec", file=out)
            return 2
        suite = load_suite(args.suite)
        result = run_suite(
            suite,
            jobs=args.jobs,
            executor=args.executor,
            cache=_make_cache(args, default_on=True),
        )
        if args.as_json:
            print(to_json(suite_to_dict(result.runs)), file=out, end="")
        else:
            print(render_suite(result.runs, verbose=args.verbose), file=out)
        if result.failed:
            return 1
        if args.strict and result.inconclusive:
            return 1
        return 0

    if args.spec is None or args.target is None:
        print("check needs a target and --spec (or --suite DIR)", file=out)
        return 2
    with open(args.spec) as handle:
        spec = parse_spec(handle.read(), path=args.spec)

    from repro.programs.registry import all_benchmarks

    bench = all_benchmarks().get(args.target)
    if bench is not None:
        program = bench.parse()
        options = options_for(spec, bench)
        name = args.target
    else:
        if args.target == "-":
            source = sys.stdin.read()
        else:
            with open(args.target) as handle:
                source = handle.read()
        program = parse_program(source)
        options = AnalysisOptions(
            moment_degree=spec.min_moment_degree(),
            template_degree=spec.options.get("degree", 1),
            degree_cap=spec.options.get("cap"),
            objective_valuations=(
                (dict(spec.valuation),) if spec.valuation else None
            ),
        )
        name = "<stdin>" if args.target == "-" else args.target
    if args.at is not None:
        options = replace(options, objective_valuations=(dict(args.at),))

    pipeline = AnalysisPipeline(program, artifacts=_make_cache(args))
    result = pipeline.analyze(options)
    check = evaluate_spec(
        spec,
        result,
        program=name,
        valuation=args.at,
        nonnegative_cost=costs_nonnegative(program),
    )
    if args.as_json:
        print(to_json(check_to_dict(check)), file=out, end="")
    else:
        print(render_check(check), file=out)
    if check.verdict == FAIL:
        return 1
    if args.strict and check.verdict == INCONCLUSIVE:
        return 1
    return 0


def _parse_seed_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(piece) for piece in text.split(",") if piece.strip())


def _run_campaign(args, out) -> int:
    import json as json_mod

    from repro.soundness.campaign import (
        CampaignConfig,
        build_report,
        run_campaign,
        start_campaign,
    )

    if args.action in ("status", "report"):
        try:
            report = build_report(args.db, args.name)
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 2
        if args.as_json:
            print(json_mod.dumps(report.to_dict(), indent=2), file=out)
        else:
            print(report.summary(), file=out)
            if args.action == "report" and report.quarantine:
                campaign_dir = args.dir or f"{args.db}.campaigns/{args.name}"
                print(
                    f"  inspect quarantine dumps under {campaign_dir}/quarantine",
                    file=out,
                )
        if args.action == "report":
            return 1 if report.reproducers else 0
        return 0

    config = CampaignConfig(
        seed_start=args.seed,
        seed_count=args.seed_count,
        shard_size=args.shard_size,
        samples=args.samples,
        z=args.z,
        max_steps=args.max_steps,
        deadline_seconds=args.deadline,
        minimize_seconds=args.minimize_seconds,
        max_rss_mb=args.max_rss_mb,
        bias_fraction=args.bias_fraction,
        chaos_oom_seeds=_parse_seed_list(args.chaos_oom_seeds),
        chaos_crash_seeds=_parse_seed_list(args.chaos_crash_seeds),
    )
    if args.action == "start":
        try:
            start_campaign(args.db, args.name, config, args.dir)
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 2
    else:  # resume: the campaign must already exist; config comes from DB
        from repro.soundness.campaign import CampaignStore

        cstore = CampaignStore(args.db)
        try:
            if cstore.get_campaign(args.name) is None:
                print(
                    f"error: no campaign named {args.name!r} in {args.db};"
                    " use 'start'",
                    file=out,
                )
                return 2
        finally:
            cstore.close()
    report = run_campaign(
        args.db,
        args.name,
        workers=args.workers,
        cache_dir=args.cache_dir,
        visibility=args.visibility,
        wave=args.wave,
        wave_timeout=args.wave_timeout,
        log=lambda message: print(message, file=out),
    )
    if args.as_json:
        print(json_mod.dumps(report.to_dict(), indent=2), file=out)
    else:
        print(report.summary(), file=out)
    if not report.complete:
        print(
            f"campaign {args.name} did not finish; resume with:"
            f" repro fuzz campaign resume --db {args.db} --name {args.name}",
            file=out,
        )
        return 2
    return 1 if report.reproducers else 0


def _run_fuzz(args, out) -> int:
    import time

    from repro.programs.fuzz import generate_corpus
    from repro.soundness.differential import (
        DifferentialConfig,
        DifferentialReport,
        run_differential,
    )

    if getattr(args, "fuzz_command", None) == "campaign":
        return _run_campaign(args, out)

    config = DifferentialConfig(
        samples=args.samples,
        z=args.z,
        max_steps=args.max_steps,
        minimize=not args.no_minimize,
        deadline_seconds=args.deadline,
    )
    cache = _make_cache(args)
    combined = DifferentialReport()
    seed = args.seed
    started = time.perf_counter()
    while True:
        corpus = generate_corpus(args.count, seed=seed)
        report = run_differential(
            corpus,
            config,
            jobs=args.jobs,
            executor=args.executor,
            cache=cache,
            out_dir=args.out,
        )
        combined.outcomes.extend(report.outcomes)
        combined.elapsed = time.perf_counter() - started
        print(
            f"[seeds {seed}..{seed + args.count - 1}] " + report.summary(),
            file=out,
        )
        seed += args.count
        if args.budget is None or combined.elapsed >= args.budget:
            break
    if args.budget is not None:
        counts = ", ".join(
            f"{v} {k}" for k, v in combined.counts().items() if v
        )
        print(
            f"deep mode total: {len(combined.outcomes)} cases in "
            f"{combined.elapsed:.1f}s — {counts}",
            file=out,
        )
    return 1 if combined.violations else 0


def _run_serve(args, out) -> int:
    from repro.service.server import serve

    return serve(
        host=args.host,
        port=args.port,
        cache=_make_cache(args, default_on=True),
        max_pipelines=args.max_pipelines,
        db=args.db,
        workers=args.workers,
        visibility=args.visibility,
        max_queued=args.max_queued,
        job_timeout=args.job_timeout,
        out=out,
    )


def _run_jobs(args, out) -> int:
    from repro.service.store import JobStore

    if args.jobs_command == "enqueue":
        from repro.service.jobs import enqueue_analysis, wait_for_jobs

        if args.file == "-":
            source = sys.stdin.read()
        else:
            with open(args.file) as handle:
                source = handle.read()
        options = {"moments": args.moments, "degree": args.degree}
        if args.at:
            options["at"] = args.at
        store = JobStore(args.db)
        job_id, deduped = enqueue_analysis(
            store,
            source,
            options,
            priority=args.priority,
            idempotency_key=args.idempotency_key,
            dedupe=args.dedupe,
            max_attempts=args.max_attempts,
        )
        print(
            f"job {job_id} {'deduped (already enqueued)' if deduped else 'enqueued'}"
            f" (depth {store.depth()})",
            file=out,
        )
        if not args.wait:
            return 0
        (job,) = wait_for_jobs(store, [job_id], timeout=args.timeout)
        if job is not None and job.state == "done":
            summary = (job.result or {}).get("summary")
            if summary:
                print(summary, file=out)
            return 0
        state = job.state if job is not None else "missing"
        error = job.error if job is not None else None
        print(f"job {job_id} {state}" + (f": {error}" if error else ""), file=out)
        return 1

    if args.jobs_command == "status":
        import json as _json

        store = JobStore(args.db)
        if args.id is not None:
            job = store.get(args.id)
            if job is None:
                print(f"no job {args.id}", file=out)
                return 1
            if args.json:
                print(_json.dumps(job.to_dict(), sort_keys=True), file=out)
            else:
                doc = job.to_dict()
                for key in (
                    "id", "kind", "state", "priority", "attempts",
                    "max_attempts", "retries", "run_seconds", "error",
                ):
                    print(f"{key}: {doc[key]}", file=out)
            return 0
        counts = store.counts()
        totals = store.totals()
        if args.json:
            print(
                _json.dumps(
                    {"depth": store.depth(), "states": counts, **totals},
                    sort_keys=True,
                ),
                file=out,
            )
        else:
            states = ", ".join(f"{k} {v}" for k, v in counts.items())
            print(
                f"depth {store.depth()} ({states}); "
                f"{totals['enqueued']} enqueued, {totals['retried']} retried",
                file=out,
            )
        return 0

    # drain: an ephemeral fleet empties the queue, then exits.
    from repro.service.jobs import WorkerPool, drain_queue

    store = JobStore(args.db, visibility=args.visibility)
    recovered = store.recover_expired()
    if recovered:
        print(f"recovered {recovered} expired lease(s)", file=out)
    depth = store.depth()
    if depth == 0:
        print("queue already empty", file=out)
        return 0
    cache = _make_cache(args)
    cache_dir = (
        str(cache.directory.parent)
        if cache is not None and cache.directory is not None
        else None
    )
    pool = WorkerPool(
        args.db, args.workers, cache_dir,
        visibility=args.visibility, poll=0.05, drain_and_exit=True,
    ).start()
    try:
        drained = drain_queue(store, timeout=args.timeout)
        pool.join(timeout=30.0)
    finally:
        pool.stop(graceful=True, timeout=10.0)
    counts = store.counts()
    print(
        f"drained {depth} job(s) with {args.workers} worker(s): "
        f"{counts['done']} done, {counts['dead']} dead, "
        f"{counts['queued'] + counts['leased']} remaining",
        file=out,
    )
    return 0 if drained else 1


def run(argv: list[str] | None = None, out=None) -> int:
    if out is None:
        out = sys.stdout  # late-bound so embedders that swap stdout see theirs
    args = build_parser().parse_args(argv)
    try:
        if args.command == "batch":
            return _run_batch(args, out)
        if args.command == "check":
            return _run_check(args, out)
        if args.command == "fuzz":
            return _run_fuzz(args, out)
        if args.command == "serve":
            return _run_serve(args, out)
        if args.command == "jobs":
            return _run_jobs(args, out)
        return _run_analyze(args, out)
    except AnalysisTimeout as exc:
        print(f"error: {exc}", file=out)
        return 2


def main() -> None:
    sys.exit(run())
