"""Suite mode: validate spec files against whole program sets.

A suite is a directory of ``*.spec`` files.  Each spec names its target
programs with the ``@programs`` directive — registry names or ``fnmatch``
globs (``wang-*``) resolved against :mod:`repro.programs.registry`.  All
resolved analyses go through one batch
(:func:`repro.service.executor.run_batch`: in this process, or on ``jobs``
worker processes), sharing the artifact cache, and each spec is then
evaluated against the results it asked for.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from fnmatch import fnmatch
from pathlib import Path

from repro.analysis.pipeline import AnalysisOptions
from repro.policy.ast import Spec
from repro.policy.evaluate import FAIL, INCONCLUSIVE, ProgramCheck, evaluate_spec
from repro.policy.parser import parse_spec
from repro.tail.bounds import costs_nonnegative


@dataclass
class SpecRun:
    """One spec plus the per-program checks it produced."""

    spec: Spec
    relpath: str
    checks: list[ProgramCheck] = field(default_factory=list)


@dataclass
class SuiteResult:
    runs: list[SpecRun]

    @property
    def failed(self) -> bool:
        return any(c.verdict == FAIL for run in self.runs for c in run.checks)

    @property
    def inconclusive(self) -> bool:
        return any(
            c.verdict == INCONCLUSIVE for run in self.runs for c in run.checks
        )


def load_suite(directory: str | os.PathLike) -> list[tuple[str, Spec]]:
    """Parse every ``*.spec`` under ``directory`` (sorted, recursive)."""
    root = Path(directory)
    paths = sorted(root.rglob("*.spec"))
    if not paths:
        raise FileNotFoundError(f"no .spec files under {root}")
    suite = []
    for path in paths:
        spec = parse_spec(path.read_text(), path=str(path))
        if not spec.programs:
            raise ValueError(f"{path}: suite specs need a @programs directive")
        suite.append((str(path.relative_to(root)), spec))
    return suite


def resolve_programs(spec: Spec) -> list[str]:
    """Registry names matching the spec's ``@programs`` entries (order of
    first mention, each name once)."""
    from repro.programs.registry import all_benchmarks

    names = list(all_benchmarks())
    resolved: list[str] = []
    for pattern in spec.programs:
        matches = (
            [pattern]
            if pattern in names
            else [name for name in names if fnmatch(name, pattern)]
        )
        if not matches:
            raise ValueError(
                f"@programs entry {pattern!r} matches no registry program"
            )
        for name in matches:
            if name not in resolved:
                resolved.append(name)
    return resolved


def options_for(spec: Spec, bench) -> AnalysisOptions:
    """Analyzer options for one spec/benchmark pair: the benchmark's
    registered metadata, overridden by ``@options``, with the moment degree
    floored at what the assertions need."""
    moments = max(spec.min_moment_degree(), 0)
    if "moments" not in spec.options:
        moments = max(moments, bench.moment_degree)
    options = bench.options()
    valuations = options.objective_valuations
    if spec.valuation is not None:
        valuations = (dict(spec.valuation),) + valuations[1:]
    return replace(
        options,
        moment_degree=moments,
        template_degree=spec.options.get("degree", bench.template_degree),
        degree_cap=spec.options.get("cap", bench.degree_cap),
        objective_valuations=valuations,
    )


def run_suite(
    suite: list[tuple[str, Spec]],
    *,
    jobs: int | None = None,
    cache=None,
) -> SuiteResult:
    """Analyze every (spec, program) pair and evaluate all assertions.

    Analyses are deduplicated per ``(program, options)`` and run in one
    :func:`run_batch` call (``jobs`` worker processes; default 1, in this
    process); an analysis failure surfaces as a failed
    :class:`ProgramCheck` (``error`` set), never an exception.
    """
    from repro.programs.registry import get
    from repro.service.executor import run_batch

    # One workload entry per distinct (program, options); several specs can
    # share an analysis.
    workload: dict[str, tuple] = {}
    plan: list[tuple[str, Spec, list[tuple[str, str]]]] = []  # relpath, spec, [(prog, key)]
    for relpath, spec in suite:
        entries = []
        for name in resolve_programs(spec):
            bench = get(name)
            options = options_for(spec, bench)
            key = f"{name}@{options.result_key([dict(bench.valuation)])!r}"
            if key not in workload:
                workload[key] = (bench.parse(), options)
            entries.append((name, key))
        plan.append((relpath, spec, entries))

    report = run_batch(workload, jobs=jobs, cache=cache)
    items = {item.name: item for item in report.items}

    runs: list[SpecRun] = []
    for relpath, spec, entries in plan:
        run = SpecRun(spec=spec, relpath=relpath)
        for name, key in entries:
            item = items[key]
            if not item.ok or item.result is None:
                run.checks.append(
                    ProgramCheck(
                        program=name,
                        spec=spec.name,
                        error=item.error or "analysis produced no result",
                    )
                )
                continue
            program, _ = workload[key]
            run.checks.append(
                evaluate_spec(
                    spec,
                    item.result,
                    program=name,
                    nonnegative_cost=costs_nonnegative(program),
                )
            )
        runs.append(run)
    return SuiteResult(runs)
