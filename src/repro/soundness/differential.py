"""Differential soundness testing: analyzer vs. vectorized Monte Carlo.

The paper's central claim (Theorem 4.4) is that every inferred interval on a
raw or central moment *brackets the true moment*.  This module checks that
claim mechanically, at scale, on programs nobody hand-tuned:

1. each :class:`~repro.programs.fuzz.FuzzCase` is analyzed through the
   standard pipeline — in one batch
   (:func:`repro.service.executor.run_batch`: in this process, or on
   ``jobs`` worker processes) and, when a cache is attached, the
   content-addressed artifact store, so repeated corpora are cheap;
2. the same program is simulated with the batched engine
   (:class:`~repro.interp.vectorized.VectorizedMachine`) at ``n`` samples;
3. every inferred interval must bracket its empirical moment up to an
   explicit sampling-error margin (below);
4. each case is classified ``verified`` / ``analyzer-infeasible`` /
   ``simulation-timeout`` / ``violation``; violations are shrunk to a
   minimal reproducer and dumped to disk.

**The bracketing margin.**  The empirical k-th raw moment is the sample
mean of ``C^k``, so by the CLT its sampling error is asymptotically normal
with scale ``se = sd(C^k) / sqrt(n)``.  We flag a violation only when the
estimate escapes the interval by more than ``z * se`` (default ``z = 5``,
one-sided tail probability < 3e-7) plus a small float-noise cushion.  A
Hoeffding bound would be assumption-free but needs an a-priori bound on
``C^k``'s range, which non-monotone costs and unbounded stopping times do
not give us; the generated programs have finite moments of every order
(negative-drift loops, geometric recursion), so the CLT margin is the
sharper and still-conservative choice.  Runs that hit ``max_steps`` would
bias the surviving sample (termination-conditioned costs), so any timeout
reclassifies the case as ``simulation-timeout`` rather than risking a false
verdict either way.

**Nondeterminism.**  The analyzer's nondet join contains *both* branch
intervals, so the inferred bounds must bracket the outcome distribution
under every resolution policy; cases that use ``ndet`` are simulated under
the random, all-left, and all-right policies and checked against each.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis.pipeline import AnalysisOptions
from repro.deadline import AnalysisTimeout, Deadline, deadline_scope
from repro.interp.mc import statistics_from_costs
from repro.interp.vectorized import VectorizedMachine
from repro.lang.ast import (
    IfBranch,
    NondetBranch,
    ProbBranch,
    Program,
    Seq,
    Skip,
    Stmt,
    While,
)
from repro.lang.printer import canonical_program
from repro.programs.fuzz import FuzzCase
from repro.service.cache import ArtifactCache
from repro.service.executor import run_batch

VERIFIED = "verified"
ANALYZER_INFEASIBLE = "analyzer-infeasible"
SIMULATION_TIMEOUT = "simulation-timeout"
#: The case blew its per-case wall-clock deadline (analysis or simulation)
#: — distinct from ``simulation-timeout``, which is a *step*-budget
#: exhaustion inside an otherwise timely simulation.
ANALYSIS_TIMEOUT = "analysis-timeout"
VIOLATION = "violation"

STATUSES = (
    VERIFIED,
    ANALYZER_INFEASIBLE,
    SIMULATION_TIMEOUT,
    ANALYSIS_TIMEOUT,
    VIOLATION,
)


@dataclass(frozen=True)
class DifferentialConfig:
    """Knobs of the differential check."""

    samples: int = 4000
    #: CLT sigma multiplier: escape beyond ``z * se`` is a violation.
    z: float = 5.0
    #: Absolute float-noise cushion added to every margin.
    abs_slack: float = 1e-6
    max_steps: int = 200_000
    #: Also check the derived central-moment (variance) interval.
    check_central: bool = True
    #: Shrink violating programs before dumping them.
    minimize: bool = True
    #: Cap on candidate evaluations during minimization.
    minimize_budget: int = 120
    #: Wall-clock cap in seconds on one whole minimization (``None`` =
    #: unbounded).  Each candidate re-analysis already runs under
    #: ``deadline_seconds``; this bounds the greedy scan itself, so a slow
    #: violating program cannot hang a campaign shard in the shrinker.
    minimize_seconds: "float | None" = None
    #: Per-case wall-clock deadline in seconds (``None`` = unbounded): the
    #: analysis runs under an :class:`~repro.deadline.Deadline` of this
    #: length and the simulation under a fresh one, so one pathological
    #: case cannot stall a whole corpus run.
    deadline_seconds: "float | None" = None


@dataclass
class MomentCheck:
    """One interval-vs-estimate comparison."""

    kind: str        # "raw" | "central"
    k: int
    policy: str      # nondet policy the samples used
    lo: float
    hi: float
    estimate: float
    margin: float

    @property
    def ok(self) -> bool:
        return bool(self.lo - self.margin <= self.estimate <= self.hi + self.margin)

    def describe(self) -> str:
        rel = "within" if self.ok else "OUTSIDE"
        return (
            f"{self.kind}[{self.k}] ({self.policy}): estimate "
            f"{self.estimate:.6g} {rel} [{self.lo:.6g}, {self.hi:.6g}] "
            f"± {self.margin:.3g}"
        )


@dataclass
class CaseOutcome:
    """Classification of one fuzz case."""

    case: FuzzCase
    status: str
    detail: str = ""
    checks: list[MomentCheck] = field(default_factory=list)
    analyze_seconds: float = 0.0
    simulate_seconds: float = 0.0
    #: Canonical text of the minimized reproducer (violations only).
    minimized: str | None = None
    artifact_dir: str | None = None

    @property
    def failed_checks(self) -> list[MomentCheck]:
        return [c for c in self.checks if not c.ok]


@dataclass
class DifferentialReport:
    """Aggregate outcome of one corpus run."""

    outcomes: list[CaseOutcome] = field(default_factory=list)
    elapsed: float = 0.0

    def by_status(self, status: str) -> list[CaseOutcome]:
        return [o for o in self.outcomes if o.status == status]

    @property
    def violations(self) -> list[CaseOutcome]:
        return self.by_status(VIOLATION)

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts(self) -> dict[str, int]:
        return {status: len(self.by_status(status)) for status in STATUSES}

    def summary(self) -> str:
        counts = self.counts()
        lines = [
            f"differential soundness: {len(self.outcomes)} cases in "
            f"{self.elapsed:.1f}s — "
            + ", ".join(f"{v} {k}" for k, v in counts.items() if v)
        ]
        for outcome in self.by_status(ANALYZER_INFEASIBLE):
            lines.append(f"  [infeasible] {outcome.case.name}: {outcome.detail}")
        for outcome in self.by_status(SIMULATION_TIMEOUT):
            lines.append(f"  [timeout]    {outcome.case.name}: {outcome.detail}")
        for outcome in self.by_status(ANALYSIS_TIMEOUT):
            lines.append(f"  [deadline]   {outcome.case.name}: {outcome.detail}")
        for outcome in self.violations:
            lines.append(f"  [VIOLATION]  {outcome.case.name}: {outcome.detail}")
            for check in outcome.failed_checks:
                lines.append(f"      {check.describe()}")
            if outcome.artifact_dir:
                lines.append(f"      reproducer: {outcome.artifact_dir}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Single-case check
# ---------------------------------------------------------------------------


def _policies(program_uses_ndet: bool) -> tuple[str, ...]:
    return ("random", "left", "right") if program_uses_ndet else ("random",)


def _uses_ndet(stmt: Stmt) -> bool:
    if isinstance(stmt, NondetBranch):
        return True
    if isinstance(stmt, Seq):
        return any(_uses_ndet(s) for s in stmt.stmts)
    if isinstance(stmt, (ProbBranch, IfBranch)):
        return _uses_ndet(stmt.then_branch) or _uses_ndet(stmt.else_branch)
    if isinstance(stmt, While):
        return _uses_ndet(stmt.body)
    return False


def program_uses_ndet(program: Program) -> bool:
    return any(_uses_ndet(f.body) for f in program.functions.values())


def compare_bounds(
    result,
    case: FuzzCase,
    program: Program,
    config: DifferentialConfig,
) -> tuple[list[MomentCheck], int, float]:
    """Simulate ``program`` and compare every interval against its estimate.

    Returns ``(checks, timeouts, simulate_seconds)``.
    """
    checks: list[MomentCheck] = []
    timeouts = 0
    started = time.perf_counter()
    degree = max(2, case.moment_degree)
    for policy in _policies(program_uses_ndet(program)):
        machine = VectorizedMachine(program, nondet_policy=policy)
        run = machine.run(
            config.samples,
            np.random.default_rng(case.seed + 17),
            initial=case.initial,
            max_steps=config.max_steps,
        )
        timeouts += int(config.samples - run.terminated.sum())
        if not run.terminated.all():
            continue
        stats = statistics_from_costs(run.costs, degree=degree)
        for k in range(1, case.moment_degree + 1):
            interval = result.raw_interval(k, case.valuation)
            se = stats.moment_stderr(k)
            margin = config.z * se + config.abs_slack * max(
                1.0, abs(interval.lo), abs(interval.hi)
            )
            checks.append(
                MomentCheck(
                    kind="raw", k=k, policy=policy,
                    lo=interval.lo, hi=interval.hi,
                    estimate=stats.raw[k], margin=margin,
                )
            )
        if config.check_central and case.moment_degree >= 2:
            interval = result.variance(case.valuation)
            centered = (stats.costs - stats.mean) ** 2
            se = float(np.std(centered) / np.sqrt(len(centered)))
            margin = config.z * se + config.abs_slack * max(
                1.0, abs(interval.lo), abs(interval.hi)
            )
            checks.append(
                MomentCheck(
                    kind="central", k=2, policy=policy,
                    lo=interval.lo, hi=interval.hi,
                    estimate=stats.central[2], margin=margin,
                )
            )
    return checks, timeouts, time.perf_counter() - started


def check_case(
    case: FuzzCase,
    config: DifferentialConfig | None = None,
) -> CaseOutcome:
    """Run the full differential check on a single case, in-process."""
    config = config or DifferentialConfig()
    program = case.parse()
    from repro.analysis.pipeline import AnalysisPipeline

    started = time.perf_counter()
    try:
        result = AnalysisPipeline(program).analyze(_case_options(case, config))
    except AnalysisTimeout as exc:
        return CaseOutcome(
            case=case,
            status=ANALYSIS_TIMEOUT,
            detail=f"AnalysisTimeout: {exc}",
            analyze_seconds=time.perf_counter() - started,
        )
    except Exception as exc:
        return CaseOutcome(
            case=case,
            status=ANALYZER_INFEASIBLE,
            detail=f"{type(exc).__name__}: {exc}",
            analyze_seconds=time.perf_counter() - started,
        )
    analyze_seconds = time.perf_counter() - started
    return _classify(case, program, result, analyze_seconds, config)


def _case_options(
    case: FuzzCase, config: "DifferentialConfig | None" = None
) -> AnalysisOptions:
    return AnalysisOptions(
        moment_degree=case.moment_degree,
        objective_valuations=(case.valuation,),
        deadline_seconds=config.deadline_seconds if config is not None else None,
    )


def _classify(
    case: FuzzCase,
    program: Program,
    result,
    analyze_seconds: float,
    config: DifferentialConfig,
) -> CaseOutcome:
    # The simulation runs under its own fresh deadline (the analysis spent
    # the other one); ``deadline_scope(None)`` also isolates it from any
    # ambient deadline the caller may still have armed.
    sim_deadline = (
        Deadline(config.deadline_seconds)
        if config.deadline_seconds is not None
        else None
    )
    try:
        with deadline_scope(sim_deadline):
            checks, timeouts, sim_seconds = compare_bounds(
                result, case, program, config
            )
    except AnalysisTimeout as exc:
        return CaseOutcome(
            case=case,
            status=ANALYSIS_TIMEOUT,
            detail=f"AnalysisTimeout (simulation): {exc}",
            analyze_seconds=analyze_seconds,
        )
    outcome = CaseOutcome(
        case=case,
        status=VERIFIED,
        checks=checks,
        analyze_seconds=analyze_seconds,
        simulate_seconds=sim_seconds,
    )
    failed = outcome.failed_checks
    # A failed check from a fully-terminated policy is a confirmed
    # violation even if another policy timed out: compare_bounds only emits
    # checks for policies whose every run terminated, so timeouts elsewhere
    # cannot excuse these.
    if failed:
        outcome.status = VIOLATION
        outcome.detail = (
            f"{len(failed)} of {len(checks)} moment checks escaped their "
            f"interval (seed {case.seed}, degree {case.moment_degree})"
        )
    elif timeouts:
        outcome.status = SIMULATION_TIMEOUT
        outcome.detail = (
            f"{timeouts} of {config.samples} runs hit max_steps="
            f"{config.max_steps}; termination-conditioned estimates "
            "would be biased"
        )
    return outcome


# ---------------------------------------------------------------------------
# Reproducer minimization
# ---------------------------------------------------------------------------


def _rewrite(stmt: Stmt, state: dict, target: int, mode: str) -> Stmt:
    """Rebuild ``stmt`` with one structural reduction applied at the
    ``target``-th reduction point (pre-order); ``state['i']`` is the running
    counter shared across the traversal."""

    def visit(node: Stmt) -> Stmt:
        index = state["i"]
        state["i"] += 1
        if index == target:
            if mode == "drop":
                return Skip()
            if mode == "then" and isinstance(
                node, (ProbBranch, IfBranch, NondetBranch)
            ):
                return (
                    node.left if isinstance(node, NondetBranch) else node.then_branch
                )
            if mode == "else" and isinstance(
                node, (ProbBranch, IfBranch, NondetBranch)
            ):
                return (
                    node.right if isinstance(node, NondetBranch) else node.else_branch
                )
            # Mode inapplicable at this node: fall through unchanged.
        if isinstance(node, Seq):
            return Seq.of(*[visit(s) for s in node.stmts])
        if isinstance(node, ProbBranch):
            return ProbBranch(node.prob, visit(node.then_branch), visit(node.else_branch))
        if isinstance(node, IfBranch):
            return IfBranch(node.cond, visit(node.then_branch), visit(node.else_branch))
        if isinstance(node, NondetBranch):
            return NondetBranch(visit(node.left), visit(node.right))
        if isinstance(node, While):
            return While(node.cond, visit(node.body), node.invariant)
        return node

    return visit(stmt)


def _count_points(stmt: Stmt) -> int:
    count = 1
    if isinstance(stmt, Seq):
        count += sum(_count_points(s) for s in stmt.stmts)
    elif isinstance(stmt, (ProbBranch, IfBranch)):
        count += _count_points(stmt.then_branch) + _count_points(stmt.else_branch)
    elif isinstance(stmt, NondetBranch):
        count += _count_points(stmt.left) + _count_points(stmt.right)
    elif isinstance(stmt, While):
        count += _count_points(stmt.body)
    return count


def _referenced_functions(program: Program) -> set[str]:
    from repro.lang.ast import Call

    seen: set[str] = set()

    def visit(stmt: Stmt) -> None:
        if isinstance(stmt, Call):
            if stmt.func not in seen:
                seen.add(stmt.func)
                if stmt.func in program.functions:
                    visit(program.functions[stmt.func].body)
        elif isinstance(stmt, Seq):
            for s in stmt.stmts:
                visit(s)
        elif isinstance(stmt, (ProbBranch, IfBranch)):
            visit(stmt.then_branch)
            visit(stmt.else_branch)
        elif isinstance(stmt, NondetBranch):
            visit(stmt.left)
            visit(stmt.right)
        elif isinstance(stmt, While):
            visit(stmt.body)

    seen.add(program.main)
    visit(program.main_fun.body)
    return seen


def _shrink_candidates(program: Program):
    """Yield structurally smaller variants of ``program`` (one reduction
    each).  Unreferenced functions are dropped from every candidate."""
    from repro.lang.ast import FunDef

    for fname, fun in program.functions.items():
        points = _count_points(fun.body)
        for target in range(points):
            for mode in ("drop", "then", "else"):
                body = _rewrite(fun.body, {"i": 0}, target, mode)
                if canonical_program_body_same(body, fun.body):
                    continue
                functions = dict(program.functions)
                functions[fname] = FunDef(
                    name=fun.name, body=body, pre=fun.pre, integers=fun.integers
                )
                candidate = Program(functions=functions, main=program.main)
                live = _referenced_functions(candidate)
                candidate = Program(
                    functions={n: f for n, f in functions.items() if n in live},
                    main=program.main,
                )
                yield candidate


def canonical_program_body_same(a: Stmt, b: Stmt) -> bool:
    from repro.lang.printer import format_stmt

    return format_stmt(a) == format_stmt(b)


def minimize_case(
    case: FuzzCase, config: DifferentialConfig
) -> tuple[FuzzCase, int]:
    """Greedily shrink a violating case while the violation reproduces.

    Returns the smallest reproducing case and the number of candidate
    evaluations spent.  Each accepted reduction restarts the scan, so the
    result is 1-minimal w.r.t. the reduction operators within budget.
    Candidate re-analyses inherit ``config.deadline_seconds``, and
    ``config.minimize_seconds`` caps the whole scan, so minimization is
    bounded even on pathological programs.
    """
    best = case
    spent = 0
    improved = True
    stop_at = (
        None
        if config.minimize_seconds is None
        else time.perf_counter() + config.minimize_seconds
    )
    while improved and spent < config.minimize_budget:
        improved = False
        for candidate_program in _shrink_candidates(best.parse()):
            if spent >= config.minimize_budget:
                break
            if stop_at is not None and time.perf_counter() >= stop_at:
                return best, spent
            spent += 1
            candidate = replace(
                best, source=canonical_program(candidate_program)
            )
            try:
                outcome = check_case(candidate, replace(config, minimize=False))
            except Exception:
                continue
            if outcome.status == VIOLATION:
                best = candidate
                improved = True
                break
    return best, spent


# ---------------------------------------------------------------------------
# Corpus driver
# ---------------------------------------------------------------------------


def _dump_violation(
    outcome: CaseOutcome, out_dir: str, config: DifferentialConfig
) -> None:
    import pathlib

    from repro.service.cache import program_key

    # Content-addressed by the reproducer program text: two shards (or two
    # runs) that find the same minimized program land in the same directory
    # and write the same bytes, instead of positional `fuzzNNNNN` names
    # silently overwriting distinct reproducers across runs.
    reproducer = (
        outcome.minimized if outcome.minimized is not None else outcome.case.source
    )
    case_dir = pathlib.Path(out_dir) / program_key(reproducer)[:16]
    case_dir.mkdir(parents=True, exist_ok=True)
    (case_dir / "original.appl").write_text(outcome.case.source)
    # program.appl is the documented reproducer entry point: the minimized
    # source when shrinking ran, the as-generated source otherwise.
    (case_dir / "program.appl").write_text(
        outcome.minimized if outcome.minimized is not None else outcome.case.source
    )
    (case_dir / "report.json").write_text(
        json.dumps(
            {
                "case": outcome.case.name,
                "reproducer_sha256": program_key(reproducer),
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
            },
            indent=2,
        )
        + "\n"
    )
    outcome.artifact_dir = str(case_dir)


def run_differential(
    cases: list[FuzzCase],
    config: DifferentialConfig | None = None,
    jobs: int | None = None,
    cache: ArtifactCache | None = None,
    out_dir: str | None = None,
) -> DifferentialReport:
    """Differential-check a corpus; see the module docstring.

    The analyses go through :func:`repro.service.executor.run_batch`
    (``jobs``/``cache`` have their batch meanings: by default one worker,
    this process); the Monte-Carlo and comparison phases run in the calling
    process, where the vectorized engine makes them a small fraction of the
    analysis cost.
    """
    config = config or DifferentialConfig()
    started = time.perf_counter()
    workload = {
        case.name: (case.parse(), _case_options(case, config))
        for case in cases
    }
    batch = run_batch(workload, jobs=jobs, cache=cache)

    report = DifferentialReport()
    by_name = {case.name: case for case in cases}
    for item in batch.items:
        case = by_name[item.name]
        if not item.ok:
            error = item.error or "analysis failed"
            # Batch items travel as (ok, error-string); the fixed message
            # prefix of AnalysisTimeout is the classification marker.
            timed_out = "analysis deadline exceeded" in error
            report.outcomes.append(
                CaseOutcome(
                    case=case,
                    status=ANALYSIS_TIMEOUT if timed_out else ANALYZER_INFEASIBLE,
                    detail=error,
                    analyze_seconds=item.seconds,
                )
            )
            continue
        outcome = _classify(
            case, case.parse(), item.result, item.seconds, config
        )
        if outcome.status == VIOLATION:
            if config.minimize:
                minimized, _ = minimize_case(case, config)
                outcome.minimized = minimized.source
            if out_dir is not None:
                _dump_violation(outcome, out_dir, config)
        report.outcomes.append(outcome)
    report.elapsed = time.perf_counter() - started
    return report


__all__ = [
    "ANALYSIS_TIMEOUT",
    "ANALYZER_INFEASIBLE",
    "CaseOutcome",
    "DifferentialConfig",
    "DifferentialReport",
    "MomentCheck",
    "SIMULATION_TIMEOUT",
    "STATUSES",
    "VERIFIED",
    "VIOLATION",
    "check_case",
    "compare_bounds",
    "minimize_case",
    "program_uses_ndet",
    "run_differential",
]
