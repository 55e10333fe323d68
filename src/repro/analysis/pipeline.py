"""The staged analysis pipeline: contexts → templates → constraints → LP.

The paper's tool (section 3.4) is a four-stage pipeline; this module makes
the stages explicit, with one cacheable artifact per stage:

====================  =========================================================
stage                 artifact (cache key)
====================  =========================================================
static analysis       ``ProgramInfo``            (per program)
context analysis      ``ContextMap``             (per program)
constraint derivation ``ConstraintSystem``       (m, d, upper_only, unit_cost,
                                                  degree_cap)
LP solving            ``StageSolution``          (the above + valuations,
                                                  lexicographic, lp_bound)
resolution            ``MomentBoundResult``      (not cached: cheap)
====================  =========================================================

An :class:`AnalysisPipeline` instance owns the caches for one program, so a
caller can re-solve at different objective valuations without re-deriving
constraints, or raise the moment degree and still reuse the static and
context stages.  Lexicographic stage cuts are rolled back after every solve
(:meth:`~repro.lp.problem.LPProblem.rollback`), leaving the cached
constraint system pristine for the next objective.

``analyze`` is the one-shot convenience wrapper (re-exported as
``repro.analyze``); ``analyze_many`` runs a workload of programs
concurrently via :mod:`concurrent.futures`.

Timing: each artifact records its own wall time (``derive_seconds`` on the
constraint system, ``solve_seconds`` on the solution), splitting derivation
from solving — the two roughly co-equal cost centers.  Derivation runs on
the vectorized symbolic kernel (:mod:`repro.poly.kernel`,
:mod:`repro.logic.handelman`); ``repro analyze --profile`` prints the
per-stage split with cProfile hotspots, and
``benchmarks/bench_constraint_derivation.py`` records the Fig. 10
derivation times (``BENCH_constraints.json``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np
from scipy.optimize import linprog

from repro.analysis.annotations import MomentAnnotation
from repro.analysis.results import (
    FunctionBound,
    MomentBoundResult,
    resolve_annotation,
)
from repro.analysis.specs import SpecTable
from repro.analysis.transformer import Deriver
from repro import faults
from repro.deadline import (
    AnalysisTimeout,
    Deadline,
    current_deadline,
    deadline_scope,
)
from repro.lang.ast import Program
from repro.lang.varinfo import ProgramInfo, analyze_program as static_info
from repro.logic.absint import ContextMap, compute_contexts
from repro.logic.context import Context
from repro.lp.affine import AffForm
from repro.lp.backends import IncrementalBackend
from repro.lp.core import LPError, LPInfeasibleError, LPSolution
from repro.lp.problem import LPProblem

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.service.cache import ArtifactCache


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs of the analyzer.

    ``moment_degree`` is the paper's ``m`` (how many raw moments to bound);
    ``template_degree`` is ``d`` (the k-th moment component uses polynomials
    of degree ``k*d``).  ``objective_valuations`` are the concrete points at
    which imprecision is minimized; when omitted, a feasible point of main's
    pre-condition is computed automatically.  Every analysis derives onto
    the incremental HiGHS backend (:mod:`repro.lp.backends`) and solves
    through the LP reduction layer (:mod:`repro.lp.reduce`); neither is an
    option.

    ``deadline_seconds`` bounds the analysis wall-clock: a monotonic
    :class:`~repro.deadline.Deadline` token is armed for the run and
    checked at every stage boundary, inside the LP backends, the reduce
    block loop, and vectorized MC supersteps; expiry raises
    :class:`~repro.deadline.AnalysisTimeout`.
    ``degrade`` opts into the graceful-degradation ladder: on timeout (or
    an :class:`~repro.lp.core.LPError` surviving the template-restart
    ladder) the analysis is retried at descending moment degrees, each
    rung under a fresh budget, and the result carries a ``degraded``
    provenance block.  Both are runtime-only knobs: they never enter
    cache keys (an un-degraded result is identical with or without
    them), and degraded results are never cached at all.
    """

    moment_degree: int = 2
    template_degree: int = 1
    objective_valuations: tuple[dict[str, float], ...] | None = None
    upper_only: bool = False
    unit_cost: bool = False
    check_soundness: bool = False
    lexicographic: bool = True
    lp_bound: float = 1e12
    degree_cap: int | None = None
    deadline_seconds: float | None = None
    degrade: bool = False

    def __post_init__(self) -> None:
        if self.moment_degree < 1:
            raise ValueError("moment_degree must be at least 1")
        if self.template_degree < 1:
            raise ValueError("template_degree must be at least 1")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive when set")

    def derivation_key(self) -> tuple:
        """The options a :class:`ConstraintSystem` depends on."""
        return (
            self.moment_degree,
            self.template_degree,
            self.upper_only,
            self.unit_cost,
            self.degree_cap,
        )

    def solve_key(self, valuations: list[dict[str, float]]) -> tuple:
        frozen = tuple(tuple(sorted(v.items())) for v in valuations)
        return self.derivation_key() + (
            frozen,
            self.lexicographic,
            self.lp_bound,
        )

    def result_key(self, valuations: list[dict[str, float]]) -> tuple:
        """The options a final :class:`MomentBoundResult` depends on."""
        return self.solve_key(valuations) + (self.check_soundness,)


@dataclass
class ConstraintSystem:
    """Stage-3 artifact: the derived LP plus the templates that feed it.

    The artifact is picklable (the backend drops its native solver handle on
    serialization and rebuilds lazily) and may be shared between pipelines
    through an :class:`~repro.service.cache.ArtifactCache`; ``solve_lock``
    serializes the solve/rollback critical section on the shared ``lp``.
    """

    key: tuple
    lp: LPProblem
    specs: SpecTable
    main_pre: MomentAnnotation
    called: list[str]
    derive_seconds: float
    #: Pristine sizes captured at derivation time.  ``lp`` itself briefly
    #: carries lexicographic cut rows inside the (locked) solve window, so
    #: reporting code must use these instead of the live counts.
    num_variables: int = 0
    num_constraints: int = 0

    def __post_init__(self) -> None:
        self.solve_lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("solve_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.solve_lock = threading.Lock()


@dataclass
class StageSolution:
    """Stage-4 artifact: one lexicographic solve of a constraint system.

    ``statuses[k]`` records which rung of the backend's robustness cascade
    produced stage ``k`` (``"optimal"``, ``"optimal:regularized"``,
    ``"optimal:boxed"``, or ``"constant"`` for stages with nothing to
    optimize); ``scales[k]`` is the normalization factor applied to the
    stage objective — the natural unit for comparing stage optima across
    backends.  ``tolerances[k]`` is the cut margin added when pinning stage
    ``k``'s optimum for the next stage, in the stage objective's own units
    (0.0 for the final stage, which pins nothing): the recorded
    ``objective_values`` are the un-padded stage optima, and the margin
    documents how far later stages were allowed to drift off them.
    ``reduction`` carries the LP reduction layer's presolve/decomposition
    stats (including per-component solve times) when the solve went through
    it, so staged artifacts retain the mapping the full-space solution
    values were reconstructed under.
    """

    key: tuple
    solution: LPSolution
    objective_values: list[float]
    valuations: list[dict[str, float]]
    solve_seconds: float
    statuses: list[str] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    tolerances: list[float] = field(default_factory=list)
    reduction: dict | None = None
    #: Tighter template-coefficient box a restart solved under, or ``None``
    #: when the solve succeeded at ``options.lp_bound`` (see
    #: ``_TEMPLATE_RESTART_LADDER``).
    restart_bound: float | None = None


class AnalysisPipeline:
    """Staged, cache-carrying analysis of one program.

    Quickstart::

        pipe = AnalysisPipeline(program)
        r1 = pipe.analyze(AnalysisOptions(moment_degree=2))
        # re-solve with a different objective: constraints are reused
        r2 = pipe.analyze(AnalysisOptions(
            moment_degree=2, objective_valuations=({"d": 50},)))
        # raise the degree: static + context stages are reused
        r3 = pipe.analyze(AnalysisOptions(moment_degree=4))

    With an ``artifacts`` store (:class:`repro.service.cache.ArtifactCache`)
    the same reuse extends *across pipelines, processes, and sessions*:
    every stage consults the content-addressed store (keyed by the program's
    canonical text plus the stage's option tuple) before computing, and
    publishes what it computed.  The per-instance dicts above remain the
    first-level cache — the store is only consulted on instance misses.
    """

    def __init__(self, program: Program, artifacts: "ArtifactCache | None" = None):
        self.program = program
        self.artifacts = artifacts
        self._program_hash: str | None = None
        self._info: ProgramInfo | None = None
        self._cmap: ContextMap | None = None
        self._systems: dict[tuple, ConstraintSystem] = {}
        self._solutions: dict[tuple, StageSolution] = {}
        self._valuations: dict[tuple | None, list[dict[str, float]]] = {}
        self._results: dict[tuple, MomentBoundResult] = {}

    @property
    def program_hash(self) -> str:
        """Content address of the program (SHA-256 of its canonical text)."""
        if self._program_hash is None:
            from repro.service.cache import program_key

            self._program_hash = program_key(self.program)
        return self._program_hash

    def _shared(self, stage: str, options_key: tuple, compute: Callable):
        """Artifact-store read-through: instance caches sit in front."""
        if self.artifacts is None:
            return compute()
        cached = self.artifacts.get(self.program_hash, stage, options_key)
        if cached is not None:
            return cached
        value = compute()
        self.artifacts.put(self.program_hash, stage, options_key, value)
        return value

    # -- stages 1+2: static facts and context analysis -----------------------
    #
    # AST nodes hash by identity, and ``ContextMap`` attaches contexts *per
    # node object* — so the static artifacts are only meaningful alongside
    # the exact AST they were computed from.  They are therefore cached as
    # one bundle ``(program, info, cmap)``; a pipeline that loads the bundle
    # re-anchors ``self.program`` onto the bundled AST (same canonical text,
    # hence the same program) so node identities line up for derivation.

    def _base(self) -> tuple[ProgramInfo, ContextMap]:
        if self._info is None or self._cmap is None:

            def compute():
                info = static_info(self.program)
                return self.program, info, compute_contexts(self.program, info)

            program, info, cmap = self._shared("base", (), compute)
            self.program = program
            self._info = info
            self._cmap = cmap
        return self._info, self._cmap

    def static_info(self) -> ProgramInfo:
        return self._base()[0]

    def context_map(self) -> ContextMap:
        return self._base()[1]

    # -- stage 3: constraint derivation -------------------------------------

    def constraint_system(self, options: AnalysisOptions) -> ConstraintSystem:
        key = options.derivation_key()
        cached = self._systems.get(key)
        if cached is not None:
            return cached
        system = self._shared(
            "system", key, lambda: self._derive_system(options, key)
        )
        self._systems[key] = system
        return system

    def _derive_system(self, options: AnalysisOptions, key: tuple) -> ConstraintSystem:
        start = time.perf_counter()
        info = self.static_info()
        cmap = self.context_map()
        lp = LPProblem(backend=IncrementalBackend())
        called = sorted(
            set().union(*(info.call_graph[f] for f in info.reachable))
            & info.reachable
        )
        specs = SpecTable(
            lp,
            called,
            options.moment_degree,
            options.template_degree,
            info.variables,
            upper_only=options.upper_only,
            degree_cap=options.degree_cap,
        )
        deriver = Deriver(
            lp=lp,
            cmap=cmap,
            specs=specs,
            m=options.moment_degree,
            template_degree=options.template_degree,
            variables=info.variables,
            unit_cost=options.unit_cost,
            upper_only=options.upper_only,
            degree_cap=options.degree_cap,
        )
        for name in called:
            deriver.derive_function_specs(self.program, name)
        main_post = MomentAnnotation.one(options.moment_degree)
        main_pre = deriver.derive(self.program.main_fun.body, main_post, level=0)
        return ConstraintSystem(
            key=key,
            lp=lp,
            specs=specs,
            main_pre=main_pre,
            called=called,
            derive_seconds=time.perf_counter() - start,
            num_variables=lp.num_variables,
            num_constraints=lp.num_constraints,
        )

    # -- stage 4: LP solving -------------------------------------------------

    def _objective_valuations(self, options: AnalysisOptions) -> list[dict[str, float]]:
        """Memoized: the automatic case runs a small LP (`_feasible_point`)
        that must not be repaid on every cache-hitting re-analysis."""
        if options.objective_valuations is None:
            vkey = None
        else:
            vkey = tuple(
                tuple(sorted(v.items())) for v in options.objective_valuations
            )
        cached = self._valuations.get(vkey)
        if cached is None:
            cached = self._shared(
                "valuations",
                ("auto",) if vkey is None else vkey,
                lambda: _objective_valuations(
                    options, self.context_map().fun_pre[self.program.main],
                    self.static_info().variables,
                ),
            )
            self._valuations[vkey] = cached
        return cached

    def solve(self, options: AnalysisOptions) -> StageSolution:
        system = self.constraint_system(options)
        valuations = self._objective_valuations(options)
        key = options.solve_key(valuations)
        cached = self._solutions.get(key)
        if cached is not None:
            return cached
        staged = self._shared(
            "solution", key, lambda: self._solve_system(system, valuations, options, key)
        )
        self._solutions[key] = staged
        return staged

    def _solve_system(
        self,
        system: ConstraintSystem,
        valuations: list[dict[str, float]],
        options: AnalysisOptions,
        key: tuple,
    ) -> StageSolution:
        start = time.perf_counter()
        # The system may be shared with other pipelines through the artifact
        # store; the lock serializes the cut/solve/rollback window.
        with system.solve_lock:
            checkpoint = system.lp.checkpoint()
            try:
                solution, objective_values, statuses, scales, tolerances, used = (
                    _restarting_solve(system.lp, system.main_pre, valuations, options)
                )
                reduction = system.lp.reduction_stats()
            finally:
                # Drop the stage cuts so the cached system stays re-solvable
                # under a different objective.
                system.lp.rollback(checkpoint)
        return StageSolution(
            key=key,
            solution=solution,
            objective_values=objective_values,
            valuations=valuations,
            solve_seconds=time.perf_counter() - start,
            statuses=statuses,
            scales=scales,
            tolerances=tolerances,
            reduction=reduction,
            restart_bound=None if used == options.lp_bound else used,
        )

    # -- stage 5: resolution --------------------------------------------------

    def analyze(self, options: AnalysisOptions | None = None) -> MomentBoundResult:
        """Run all stages (using whatever is cached) and resolve bounds.

        With an artifact store attached the *final result* is cached too
        (stage ``"result"``), so a fully warm analysis is one content hash
        plus one store read — and every caller (CLI, server, batch worker)
        sees the identical result object for identical inputs.

        ``options.deadline_seconds`` arms a :class:`~repro.deadline.Deadline`
        for the run; ``options.degrade`` falls back to lower moment degrees
        on timeout or solver failure (see :meth:`_degraded_analyze`).
        """
        options = options or AnalysisOptions()
        try:
            return self._deadlined_analyze(options)
        except AnalysisTimeout as exc:
            if not options.degrade or options.moment_degree <= 1:
                raise
            start = min(max(exc.lex_completed, 1), options.moment_degree - 1)
            return self._degraded_analyze(options, exc, start)
        except LPError as exc:
            if not options.degrade or options.moment_degree <= 1:
                raise
            return self._degraded_analyze(options, exc, options.moment_degree - 1)

    def _deadlined_analyze(self, options: AnalysisOptions) -> MomentBoundResult:
        """One attempt at the requested degree, under the armed deadline."""
        if options.deadline_seconds is None:
            return self._cached_analyze(options)
        with deadline_scope(Deadline(options.deadline_seconds)):
            return self._cached_analyze(options)

    def _cached_analyze(self, options: AnalysisOptions) -> MomentBoundResult:
        key = options.result_key(self._objective_valuations(options))
        cached = self._results.get(key)
        if cached is None:
            cached = self._shared(
                "result", key, lambda: self._analyze_uncached(options)
            )
            self._results[key] = cached
        return cached

    def _degraded_analyze(
        self,
        options: AnalysisOptions,
        cause: Exception,
        start_degree: int,
    ) -> MomentBoundResult:
        """Graceful degradation: retry at descending moment degrees.

        Each rung runs the full pipeline at a lower ``moment_degree`` with a
        *fresh* deadline budget (the token from the failed attempt is
        exhausted by definition).  The first rung that solves yields a copy
        of its result carrying a ``degraded`` provenance block; assertions
        above the degraded degree evaluate to inconclusive downstream (the
        policy evaluator reads the provenance).  Degraded results are never
        written to the instance or artifact caches: the cache key describes
        the *requested* analysis, and a later retry with more budget must
        not be poisoned by a past timeout.

        If every rung fails, the original failure is re-raised.
        """
        import copy

        for degree in range(start_degree, 0, -1):
            rung = replace(options, moment_degree=degree, degrade=False)
            try:
                result = self._deadlined_analyze(rung)
            except (AnalysisTimeout, LPError):
                continue
            degraded = copy.copy(result)
            degraded.degraded = {
                "requested_degree": options.moment_degree,
                "degree": degree,
                "cause": type(cause).__name__,
                "error": str(cause),
            }
            return degraded
        raise cause

    def _stage_boundary(self, stage: str) -> None:
        """Fault-injection + deadline check at a pipeline stage boundary."""
        faults.check("pipeline.stage")
        deadline = current_deadline()
        if deadline is not None:
            deadline.check(stage)

    def _analyze_uncached(self, options: AnalysisOptions) -> MomentBoundResult:
        start = time.perf_counter()
        self._stage_boundary("derive")
        system = self.constraint_system(options)
        self._stage_boundary("solve")
        staged = self.solve(options)
        self._stage_boundary("resolve")
        values = staged.solution.values

        resolved = resolve_annotation(system.main_pre, values)
        fun_bounds = {
            name: FunctionBound(
                name=name,
                pres=[resolve_annotation(a, values) for a in spec.pres],
                posts=[resolve_annotation(a, values) for a in spec.posts],
            )
            for name, spec in system.specs.specs.items()
        }
        result = MomentBoundResult(
            raw=resolved,
            functions=fun_bounds,
            valuations=list(staged.valuations),
            objective_values=list(staged.objective_values),
            solver_statuses=list(staged.statuses),
            objective_scales=list(staged.scales),
            stage_tolerances=list(staged.tolerances),
            lp_reduction=staged.reduction,
            lp_restart_bound=staged.restart_bound,
            warnings=list(self.context_map().warnings),
            lp_variables=system.num_variables,
            lp_constraints=system.num_constraints,
            solve_seconds=time.perf_counter() - start,
        )
        if options.check_soundness:
            from repro.soundness.checker import check_soundness

            result.soundness = check_soundness(
                self.program, options.moment_degree * options.template_degree
            )
        return result


# ---------------------------------------------------------------------------
# One-shot and batch drivers
# ---------------------------------------------------------------------------


def analyze(program: Program, options: AnalysisOptions | None = None) -> MomentBoundResult:
    """Derive interval bounds on the raw moments of the cost of ``program``."""
    return AnalysisPipeline(program).analyze(options)


def analyze_upper_raw(
    program: Program, options: AnalysisOptions | None = None
) -> MomentBoundResult:
    """Upper bounds on raw moments only (the Kura et al. baseline mode).

    Lower ends are pinned to zero, which is only sound for nonnegative
    costs — the same restriction the compared tools have (Fig. 1(a)).
    """
    options = options or AnalysisOptions()
    return analyze(program, replace(options, upper_only=True))


Workload = Mapping[str, "Program | tuple[Program, AnalysisOptions]"]


def analyze_many(
    programs: Workload | Iterable[tuple[str, Program]],
    options: AnalysisOptions | None = None,
    jobs: int | None = None,
    executor: str = "thread",
    cache: "ArtifactCache | None" = None,
) -> dict[str, MomentBoundResult]:
    """Analyze a workload of named programs concurrently.

    ``programs`` maps names to a :class:`Program` or a ``(Program,
    AnalysisOptions)`` pair; entries without their own options use
    ``options``.  Results preserve the input order.  Each program gets its
    own pipeline (and LP backend instance), so runs are independent.

    This is a thin wrapper over :func:`repro.service.executor.run_batch`:
    ``executor="thread"`` (default) overlaps the HiGHS solves while the
    Python derivation stages interleave; ``executor="process"`` shards the
    workload over a :class:`~concurrent.futures.ProcessPoolExecutor` for
    multi-core throughput (pass ``cache`` to share derived artifacts
    through its disk directory).  The first failing program raises, as it
    always has — use :func:`~repro.service.executor.run_batch` directly for
    per-program error isolation.
    """
    from repro.service.executor import run_batch

    report = run_batch(
        programs, options=options, jobs=jobs, executor=executor, cache=cache
    )
    for item in report.items:
        if not item.ok:
            if item.exception is not None:
                raise item.exception
            raise RuntimeError(f"analysis of {item.name!r} failed: {item.error}")
    return {item.name: item.result for item in report.items}


# ---------------------------------------------------------------------------
# Objective handling
# ---------------------------------------------------------------------------


def _objective_valuations(
    options: AnalysisOptions,
    pre_ctx: Context,
    variables: tuple[str, ...],
) -> list[dict[str, float]]:
    def complete(valuation: dict[str, float]) -> dict[str, float]:
        full = {v: 1.0 for v in variables}
        full.update(valuation)
        return full

    if options.objective_valuations:
        return [complete(dict(v)) for v in options.objective_valuations]
    point = _feasible_point(pre_ctx)
    valuations = [complete(point)]
    scaled = {v: x * 50.0 for v, x in point.items()}
    if all(g.holds(scaled) for g in pre_ctx.ineqs) and scaled != point:
        valuations.append(complete(scaled))
    return valuations


def _feasible_point(ctx: Context) -> dict[str, float]:
    """A strictly interior point of the pre-condition polyhedron.

    Maximizes the minimum slack (Chebyshev-style) within a +/-100 box, so the
    objective is evaluated away from degenerate boundary points.
    """
    variables = sorted(ctx.variables())
    if not variables or ctx.bottom:
        return {v: 1.0 for v in variables}
    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    # max t  s.t.  g_i(x) >= t,  |x| <= 100,  t <= 10
    cost = np.zeros(n + 1)
    cost[n] = -1.0
    rows = []
    rhs = []
    for g in ctx.ineqs:
        row = np.zeros(n + 1)
        for v, c in g.expr.coeffs:
            row[index[v]] = -c
        row[n] = 1.0
        rows.append(row)
        rhs.append(g.expr.const)
    bounds = [(-100.0, 100.0)] * n + [(None, 10.0)]
    result = linprog(
        cost, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs"
    )
    if not result.success:
        return {v: 1.0 for v in variables}
    return {v: float(result.x[index[v]]) for v in variables}


#: Template-restart ladder: progressively tighter template-coefficient boxes
#: tried when the lexicographic solve fails with a *solver* error (not
#: infeasibility) at the requested ``lp_bound``.  Degenerate templates — the
#: known example is ``rdwalk_chain(3)`` at moment degree 4 — put the stage
#: objective on a ray that only the ±``lp_bound`` box stops; at 1e12 that
#: vertex is numerically hopeless for HiGHS (the row coefficients are
#: unit-scale, so the box *is* the conditioning problem) and every cascade
#: rung reports "unknown".  Re-solving the whole template search under a
#: tighter box restores conditioning while staying sound: any feasible point
#: of the boxed system is a feasible point of the original one, so the
#: resolved bounds remain valid — they are merely taken over a restricted
#: certificate family.  Infeasibility at a restart rung means the tighter
#: box cut off every certificate; descending further cannot help, so the
#: original solver error is re-raised.
_TEMPLATE_RESTART_LADDER = (1e8, 1e7, 1e6)


def _restarting_solve(
    lp: LPProblem,
    main_pre: MomentAnnotation,
    valuations: list[dict[str, float]],
    options: AnalysisOptions,
):
    """``_lexicographic_solve`` with the template-restart ladder.

    Returns the five ``_lexicographic_solve`` outputs plus the ``lp_bound``
    the successful attempt ran under (== ``options.lp_bound`` when no
    restart was needed).  Every attempt starts from the caller's checkpoint:
    stage cuts of a failed attempt are rolled back before the next one.
    """
    checkpoint = lp.checkpoint()
    failure: LPError | None = None
    ladder = [options.lp_bound] + [
        b for b in _TEMPLATE_RESTART_LADDER if b < options.lp_bound
    ]
    for attempt_bound in ladder:
        if failure is not None:
            lp.rollback(checkpoint)
        try:
            outcome = _lexicographic_solve(
                lp, main_pre, valuations,
                replace(options, lp_bound=attempt_bound),
            )
            return outcome + (attempt_bound,)
        except LPInfeasibleError:
            if failure is None:
                raise  # genuinely infeasible at the requested bound
            raise failure from None  # the tighter box cut off every certificate
        except LPError as exc:
            failure = exc
    raise failure


def _lexicographic_solve(
    lp: LPProblem,
    main_pre: MomentAnnotation,
    valuations: list[dict[str, float]],
    options: AnalysisOptions,
):
    """Lexicographic minimization of imprecision, first moment first.

    Between stages only a *cut row* pinning the previous stage's optimum is
    appended.  The reduction layer lands it on the live per-block models in
    reduced coordinates, and each block re-optimizes its persistent
    warm-started HiGHS model instead of rebuilding it.

    The recorded ``objective_values`` are the un-padded stage optima; the
    cut adds a ``1e-5 * (1 + |optimum|)``-scale margin (kept well above the
    solver's feasibility tolerance so the next stage's problem stays
    numerically feasible), which necessarily leaks into later-stage feasible
    regions.  The applied margin is therefore returned per stage — in the
    stage objective's own units — so results document how tight each pin
    actually was.
    """
    m = main_pre.degree
    stage_objectives: list[AffForm] = []
    for k in range(1, m + 1):
        obj = AffForm.constant(0.0)
        for valuation in valuations:
            hi = main_pre.intervals[k].hi.evaluate(valuation)
            obj = obj + _as_aff(hi)
            if not options.upper_only:
                lo = main_pre.intervals[k].lo.evaluate(valuation)
                obj = obj - _as_aff(lo)
        stage_objectives.append(obj)
    # Reduction hint: every column the stage objectives (and hence the cut
    # rows) can touch must survive presolve into the solved core.
    lp.protect_columns(
        idx for obj in stage_objectives for idx in obj.terms
    )

    if not options.lexicographic:
        total = AffForm.constant(0.0)
        for obj in stage_objectives:
            total = total + obj
        solution = lp.solve(total, bound=options.lp_bound)
        return solution, [solution.objective], [solution.status], [1.0], [0.0]

    solution = None
    objective_values: list[float] = []
    statuses: list[str] = []
    scales: list[float] = []
    tolerances: list[float] = []
    for stage, obj in enumerate(stage_objectives):
        if obj.is_constant():
            objective_values.append(obj.const)
            statuses.append("constant")
            scales.append(1.0)
            tolerances.append(0.0)
            continue
        # Normalize the stage objective: higher moments reach 1e8-scale
        # coefficients, and HiGHS is sensitive to objective scaling.
        scale = max(abs(c) for c in obj.terms.values())
        scaled = obj * (1.0 / scale)
        try:
            solution = lp.solve(scaled, bound=options.lp_bound)
        except AnalysisTimeout as exc:
            # Stage k bounds the k-th moment: record how many moments were
            # fully solved so the degradation ladder can start there.
            exc.lex_completed = len(objective_values)
            raise
        objective_values.append(solution.objective * scale)
        statuses.append(solution.status)
        scales.append(scale)
        if stage < len(stage_objectives) - 1:
            # Keep a margin well above HiGHS' feasibility tolerance so the
            # next stage's problem stays numerically feasible.  With the
            # reduction layer the pin lands as tighter per-block cuts on the
            # live block models; the applied margin is what gets recorded.
            tolerance = 1e-5 * (1.0 + abs(solution.objective))
            applied = lp.pin_objective(
                scaled, solution.objective, tolerance, note=f"lex.cut{stage + 1}"
            )
            tolerances.append(applied * scale)
        else:
            tolerances.append(0.0)
    if solution is None:
        solution = lp.solve(None, bound=options.lp_bound)
    return solution, objective_values, statuses, scales, tolerances


def _as_aff(value) -> AffForm:
    if isinstance(value, AffForm):
        return value
    return AffForm.constant(float(value))


__all__ = [
    "AnalysisOptions",
    "AnalysisPipeline",
    "ConstraintSystem",
    "StageSolution",
    "analyze",
    "analyze_many",
    "analyze_upper_raw",
]
