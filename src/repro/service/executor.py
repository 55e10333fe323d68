"""Batch executor: a named workload in this process or on cores.

``run_batch`` runs a named workload of programs through the analysis
pipeline:

* **``jobs=1``** (default): a plain loop in the calling process, sharing
  its in-memory caches.
* **``jobs > 1``**: ``min(jobs, #programs)`` worker processes.
  Derivation is pure Python and holds the GIL, so cores pay where threads
  never did.  Workers are handed each program's *canonical text*
  (:func:`repro.lang.printer.canonical_program`, its content address)
  rather than a pickled AST, and own a private in-memory cache; with a
  disk-backed :class:`ArtifactCache` they all share one store.

Either way one failing program does not abort the batch (its
:class:`BatchItem` records the error; ``BatchReport.ok`` is False), and
results come back in workload order.  A program gets bit-identical
bounds at every ``jobs``.  The durable route for a workload is ``repro
serve --workers N`` and ``POST /batch``: its jobs live in a
:class:`~repro.service.store.JobStore` drained by a worker fleet.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.analysis.pipeline import AnalysisOptions, AnalysisPipeline
from repro.analysis.results import MomentBoundResult
from repro.lang.ast import Program
from repro.lang.printer import canonical_program
from repro.service.cache import ArtifactCache


@dataclass
class BatchItem:
    """Outcome of one program in a batch."""

    name: str
    ok: bool
    result: MomentBoundResult | None = None
    #: Why the program failed: ``"<ExceptionType>: <message>"``.
    error: str | None = None
    seconds: float = 0.0


@dataclass
class BatchReport:
    """All outcomes, in workload order, plus batch-level accounting."""

    items: list[BatchItem] = field(default_factory=list)
    #: Workers actually used: 1 for an in-process batch.
    jobs: int = 1
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    @property
    def failures(self) -> list[BatchItem]:
        return [item for item in self.items if not item.ok]

    @property
    def results(self) -> dict[str, MomentBoundResult]:
        """Successful results by name (workload order preserved)."""
        return {item.name: item.result for item in self.items if item.ok}


def _normalize(
    programs: "Mapping | Iterable[tuple[str, Program]]",
    defaults: AnalysisOptions,
) -> list[tuple[str, Program, AnalysisOptions]]:
    if not isinstance(programs, Mapping):
        programs = dict(programs)
    workload = []
    for name, entry in programs.items():
        if isinstance(entry, tuple):
            program, options = entry
        else:
            program, options = entry, defaults
        workload.append((name, program, options))
    return workload


def run_batch(
    programs: "Mapping | Iterable[tuple[str, Program]]",
    options: AnalysisOptions | None = None,
    jobs: int | None = None,
    cache: ArtifactCache | None = None,
) -> BatchReport:
    """Analyze a named workload; see the module docstring for semantics.

    ``programs`` maps names to a :class:`Program` or a ``(Program,
    AnalysisOptions)`` pair (or is an iterable of ``(name, entry)``
    pairs); entries without their own options use ``options``.
    ``jobs`` is the worker count (default 1: this process).
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workload = _normalize(programs, options or AnalysisOptions())
    start = time.perf_counter()
    workers = max(1, min(jobs or 1, len(workload)))
    report = BatchReport(jobs=workers)
    if workers == 1:
        report.items = [
            _analyze_one(name, program, opts, cache)
            for name, program, opts in workload
        ]
    else:
        _run_processes(workload, workers, cache, report)
    report.elapsed = time.perf_counter() - start
    return report


def _analyze_one(
    name: str,
    program: "Program | str",
    options: AnalysisOptions,
    cache: ArtifactCache | None,
) -> BatchItem:
    """One program on a fresh pipeline; a failure becomes the item's error.

    ``program`` may be canonical source text (what process workers are
    handed); it is parsed inside the guard, so a parse failure is an item
    error too.
    """
    started = time.perf_counter()
    try:
        if isinstance(program, str):
            from repro.lang.parser import parse_program

            program = parse_program(program)
        result = AnalysisPipeline(program, artifacts=cache).analyze(options)
    except Exception as exc:
        return BatchItem(
            name=name,
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            seconds=time.perf_counter() - started,
        )
    return BatchItem(
        name=name, ok=True, result=result, seconds=time.perf_counter() - started
    )


# -- worker processes --------------------------------------------------------

#: Per-worker state, built once by the pool initializer: the worker's own
#: ArtifactCache (private memory LRU, shared disk directory).
_WORKER_CACHE: ArtifactCache | None = None


def _init_worker(cache_dir: "str | None", disk: bool) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = ArtifactCache(cache_dir, disk=disk) if disk or cache_dir else None


def _worker_job(name: str, source: str, options: AnalysisOptions) -> BatchItem:
    """Runs in a pool worker; must stay a module-level function (pickled by
    reference) and must not raise — errors travel home as item strings."""
    return _analyze_one(name, source, options, _WORKER_CACHE)


def _run_processes(workload, max_workers, cache, report) -> None:
    cache_dir = None
    disk = False
    if cache is not None and cache.directory is not None:
        # Hand workers the *parent* of the versioned subdirectory — each
        # worker's ArtifactCache re-derives ``v<format>`` itself.
        cache_dir = str(cache.directory.parent)
        disk = True
    # The pipeline imports its stage modules on a first cache miss; load
    # them here, so the forked workers start with them loaded.
    from repro.analysis import transformer  # noqa: F401

    with ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=_init_worker,
        initargs=(cache_dir, disk),
    ) as pool:
        # Executor.map yields results in submission order regardless of
        # which worker finishes first — workload order is preserved.
        report.items.extend(
            pool.map(
                _worker_job,
                [name for name, _, _ in workload],
                [canonical_program(program) for _, program, _ in workload],
                [opts for _, _, opts in workload],
            )
        )


__all__ = ["BatchItem", "BatchReport", "run_batch"]
