"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper; the numbers
are printed (run ``pytest benchmarks/ --benchmark-only -s`` to see them) and
appended to ``benchmarks/results/*.txt`` so EXPERIMENTS.md can reference a
stable artifact.
"""

from __future__ import annotations

import pathlib
import statistics
import time
from functools import partialmethod
from typing import Callable
from unittest import mock

import repro.analysis.pipeline as pipeline
from repro import AnalysisOptions, analyze
from repro.analysis.results import MomentBoundResult
from repro.lp.backends import ScipyDenseBackend
from repro.lp.problem import LPProblem
from repro.programs import registry

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def dense_backend():
    """Pipelines built inside derive onto the dense reference backend
    (no option selects it; cache keys do not name it, so use fresh
    pipelines)."""
    return mock.patch.object(pipeline, "IncrementalBackend", ScipyDenseBackend)


def direct_solves():
    """Every ``LPProblem.solve`` inside bypasses the reduction layer."""
    return mock.patch.object(
        LPProblem, "solve", partialmethod(LPProblem.solve, reduce=False)
    )


def timed_median(
    fn: Callable[[], object],
    *,
    rounds: int = 3,
    warmup: int = 1,
    setup: Callable[[], object] | None = None,
) -> tuple[float, list[float]]:
    """Median-of-``rounds`` wall time of ``fn``, after ``warmup`` runs.

    The CI regression gate compares one number per benchmark against a
    committed baseline; a single run is hostage to scheduler noise, so every
    timed benchmark reports the median of several measured rounds with the
    first (cache/JIT/allocator-warming) runs discarded.  ``setup`` runs
    before *every* round, outside the timed window — use it to reset
    process-wide memo tables so each round measures a cold start.
    Returns ``(median_seconds, measured_times)``.
    """
    times: list[float] = []
    for i in range(warmup + rounds):
        if setup is not None:
            setup()
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if i >= warmup:
            times.append(elapsed)
    return statistics.median(times), times


def run_registered(
    name: str,
    moment_degree: int | None = None,
    **overrides,
) -> MomentBoundResult:
    """Analyze a registered benchmark with its registered options."""
    bench = registry.get(name)
    options = AnalysisOptions(
        moment_degree=moment_degree or bench.moment_degree,
        template_degree=overrides.pop("template_degree", bench.template_degree),
        degree_cap=overrides.pop("degree_cap", bench.degree_cap),
        objective_valuations=overrides.pop(
            "objective_valuations",
            (bench.valuation,) + tuple(bench.extra_valuations),
        ),
        **overrides,
    )
    return analyze(registry.parsed(name), options)


def emit(report_name: str, lines: list[str]) -> None:
    """Print a report and persist it under benchmarks/results/."""
    text = "\n".join(lines)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{report_name}.txt").write_text(text + "\n")


def fmt(value: float) -> str:
    if value == float("inf"):
        return "inf"
    if abs(value) >= 1e6 or (0 < abs(value) < 1e-3):
        return f"{value:.4g}"
    return f"{value:,.4g}"
