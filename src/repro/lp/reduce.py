"""Structure-exploiting LP reduction: presolve, block decomposition, warm lex.

After PR 4 vectorized constraint derivation, the per-program stage split
inverted: ~80% of analysis wall time sat inside the LP solve loop.  The
systems the Handelman reduction emits have exploitable structure the solver
never sees from the raw rows:

* **Presolve fodder.**  Every certificate emits one fresh λ-multiplier per
  product term; most appear in a single coefficient-matching equality or
  are forced to zero.  The solver itself cannot exploit this: the analysis
  boxes every variable at ``±lp_bound`` to rule out unbounded rays, and a
  *bounded* column blocks the solver's own singleton-column presolve rules.
  This layer knows the semantics — the box is an anti-degeneracy guard, λ
  columns are conceptually nonnegative-unbounded and template coefficients
  free — so it can run the full singleton cascade the solver is denied:

  - singleton *equality rows* fix their variable outright (cascading,
    right-hand sides adjusted with exact float arithmetic);
  - singleton *free columns* absorb their row: the row is dropped and the
    variable recovered in postsolve from the row residual;
  - singleton *λ columns* in an equality act as implied slack: the column
    is dropped and the equality relaxes to an inequality;
  - singleton λ columns that can only hurt feasibility are fixed to zero,
    and λ columns whose inequality row they alone can satisfy drop the row;
  - byte-identical duplicate rows, rows made vacuous by the variable
    bounds, and columns that appear in no row go the same way.

  Each rule is exact on the optimum (the box relaxations are checked in
  postsolve: a recovered value outside ``±lp_bound`` protects its column
  into the core and recomputes, and a problem that does not settle in
  five rounds is solved directly), so bounds with the reduction on or off
  agree to solver tolerance.
* **Block structure.**  The reduced core decomposes per calling context:
  connected components of the variable–row bipartite graph are solved as
  *separate* LP models a fraction of the full size, with block solutions
  mapped back to the full variable space.  Each block is exactly one live
  HiGHS model, and every block solves at every stage, objective or not.
* **Warm lexicographic re-solves.**  The pipeline's lexicographic loop pins
  each stage optimum before the next stage.  The pin lands as one row per
  block on the live block models (:meth:`ReducedSolver.pin_last_objective`),
  so every stage after the first re-optimizes a persistent per-block model
  from its previous basis instead of cold-starting the full system.

Everything here is an *overlay*: the :class:`~repro.lp.problem.LPProblem`
row storage is never mutated and checkpoints/rollbacks keep their existing
semantics.  A reduction is a function of the rows at its snapshot, the
``±bound`` box and the protected columns, and per-block pins are the only
rows that enter live block models.  Any other change — a row added outside
:meth:`LPProblem.pin_objective`, an objective on a column not yet protected
— recomputes the reduction.  The pipeline declares every objective column
up front (:meth:`LPProblem.protect_columns`) and lands every stage cut as
per-block pins, so it never recomputes for either reason.  The reducer,
with its live block models, lives only inside the pipeline's locked solve
window: ``AnalysisPipeline._solve_system`` drops it
(:meth:`LPProblem.forget_solves`) when it rolls back the stage cuts, so a
cached constraint system holds no solver state between solves.  The layer
is the only solve path the analyzer takes; the direct backend solve
(``LPProblem.solve(reduce=False)``) survives as the fallback
:meth:`ReducedSolver.solve` takes when a reduction cannot be used, and as
the oracle against which ``tests/test_lp_reduce.py`` checks bound-level
parity on the registry and fuzz corpus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.deadline import current_deadline
from repro.lp.backends.base import EQ, GE, Checkpoint
from repro.lp.core import LPError, LPInfeasibleError, LPSolution

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.lp.backends import IncrementalBackend
    from repro.lp.problem import LPProblem

__all__ = ["ReducedSolver", "ReductionStats"]

#: Presolve feasibility slack, matching the order of HiGHS' primal
#: feasibility tolerance: residuals below this are solver noise, not
#: contradictions.
_FEAS_TOL = 1e-7

# Elimination rules recorded in the postsolve log.
_FREE = "free"  # free singleton column absorbed its (eq or ge) row
_SLACK = "slack"  # λ singleton column turned an equality into an inequality
_GE_SLACK = "ge_slack"  # λ singleton column satisfied its inequality alone


class _Invalidate(Exception):
    """Internal: the cached reduction no longer matches the problem.

    ``protect`` names columns that must survive the next presolve because
    postsolve lifted them out of the ``±bound`` box.
    """

    def __init__(self, protect: "tuple[int, ...] | list[int]" = ()) -> None:
        super().__init__()
        self.protect = tuple(protect)


@dataclass
class ReductionStats:
    """Shape of one presolve + decomposition pass (``--profile``, benchmarks)."""

    cols: int = 0
    rows: int = 0
    nnz: int = 0
    reduced_cols: int = 0
    reduced_rows: int = 0
    reduced_nnz: int = 0
    fixed_cols: int = 0
    slack_cols: int = 0
    free_cols: int = 0
    zero_cols: int = 0
    dup_rows: int = 0
    vacuous_rows: int = 0
    substitution_passes: int = 0
    components: int = 0
    component_sizes: list[int] = field(default_factory=list)
    presolve_seconds: float = 0.0

    @property
    def eliminated_cols(self) -> int:
        """Columns removed from the solved core, by any rule."""
        return self.fixed_cols + self.slack_cols + self.free_cols + self.zero_cols

    def snapshot(self) -> dict:
        return {
            "cols": self.cols,
            "rows": self.rows,
            "nnz": self.nnz,
            "reduced_cols": self.reduced_cols,
            "reduced_rows": self.reduced_rows,
            "reduced_nnz": self.reduced_nnz,
            "eliminated_cols": self.eliminated_cols,
            "fixed_cols": self.fixed_cols,
            "slack_cols": self.slack_cols,
            "free_cols": self.free_cols,
            "zero_cols": self.zero_cols,
            "dup_rows": self.dup_rows,
            "vacuous_rows": self.vacuous_rows,
            "substitution_passes": self.substitution_passes,
            "components": self.components,
            "component_sizes": list(self.component_sizes),
            "presolve_seconds": self.presolve_seconds,
        }


class _BlockPool:
    """Sized stand-in for :class:`~repro.lp.affine.VarPool` inside a block."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def __len__(self) -> int:
        return self.n


class _BlockProblem:
    """The slice of the problem façade a backend needs to solve one block."""

    __slots__ = ("pool", "nonneg_indices", "_owner")

    def __init__(self, n: int, nonneg: set[int], owner: "LPProblem") -> None:
        self.pool = _BlockPool(n)
        self.nonneg_indices = nonneg
        self._owner = owner

    def infeasibility_diagnostics(self) -> str:
        # Block infeasibility is whole-system infeasibility; the notes live
        # on the owning problem.
        return self._owner.infeasibility_diagnostics()


@dataclass
class _PristineBlock:
    """One connected component of the reduced core, in local coordinates."""

    gcols: np.ndarray  # local index -> full-space column id
    local_of: dict[int, int]
    nonneg: set[int]  # local indices
    rows: list[tuple[str, dict[int, float], float]]  # (kind, terms, const)


class _LiveBlock:
    """A pristine block with its live backend.

    Live block *i* is pristine block *i*: one persistent HiGHS model that
    holds the block's rows plus the stage pins, and solves at every
    lexicographic stage.
    """

    __slots__ = ("gcols", "local_of", "backend", "shim", "last_obj", "last_opt")

    def __init__(
        self,
        pristine: _PristineBlock,
        backend: "IncrementalBackend",
        owner: "LPProblem",
    ) -> None:
        self.gcols = pristine.gcols
        self.local_of = pristine.local_of
        self.backend = backend
        self.shim = _BlockProblem(len(pristine.gcols), pristine.nonneg, owner)
        #: Objective slice and optimum of the latest solve, for per-block
        #: lexicographic pinning (:meth:`ReducedSolver.pin_last_objective`).
        self.last_obj: dict[int, float] | None = None
        self.last_opt: float | None = None


@dataclass
class _Reduction:
    """The immutable outcome of one presolve + decomposition pass."""

    snapshot: Checkpoint  # problem row counts the reduction was computed at
    ncols: int
    bound: float
    protected: frozenset[int]
    fixed_of: dict[int, float]
    fixed_cols: np.ndarray  # full-space ids (parallel to fixed_vals)
    fixed_vals: np.ndarray
    #: Postsolve log, in elimination order: ``(rule, col, coeff, rhs, rest)``
    #: where the eliminated column satisfied ``rest·x + coeff*col == / >= rhs``
    #: at elimination time.  Values are recovered by a reverse walk.
    elim: list[tuple[str, int, float, float, dict[int, float]]]
    col_block: dict[int, int]  # full col -> pristine block id (core cols only)
    blocks: list[_PristineBlock]
    stats: ReductionStats


#: Rank of each robustness-cascade rung; a multi-block solve reports the
#: worst rung any block needed.
_STATUS_RANK = {"optimal": 0, "optimal:regularized": 1, "optimal:boxed": 2}


def _worse_status(a: str, b: str) -> str:
    return b if _STATUS_RANK.get(b, 2) > _STATUS_RANK.get(a, 2) else a


def _pin_row(
    obj: dict[int, float], opt: float, margin: float
) -> tuple[dict[int, float], float]:
    """GE-row ``(terms, const)`` holding the minimized ``obj`` within
    ``margin`` of ``opt``: ``obj·x <= opt + margin``, i.e.
    ``-obj·x >= -(opt + margin)``.  ``const`` follows the backend
    ``add_row`` convention (``rhs = -const``).
    """
    return {j: -c for j, c in obj.items()}, opt + margin


class ReducedSolver:
    """Solve an :class:`LPProblem` through its reduced, decomposed form.

    One instance is attached lazily to a problem the first time it solves
    with the reduction enabled.  The reduction (presolve result + block
    partition) is computed from the backend's row buffers at that point and
    reused for every subsequent solve while the rows, the box and the
    protected columns stay as they were.  The lexicographic stage pins are
    the only rows added to the live block models
    (:meth:`pin_last_objective`); any other new row, and any objective on a
    column not yet protected, recomputes the reduction.  Rollbacks of pins
    rebuild the live models from the pristine partition (below-snapshot
    rollbacks invalidate the reduction entirely).

    Thread safety follows the problem façade: callers serialize solves and
    rollbacks (the pipeline holds the owning ``ConstraintSystem``'s lock).
    """

    def __init__(self, problem: "LPProblem") -> None:
        self.problem = problem
        self._reduction: _Reduction | None = None
        self._live: list[_LiveBlock] | None = None
        self._applied: dict[str, int] = {EQ: 0, GE: 0}
        self._extra_protect: set[int] = set()
        self._disabled = False
        self._pinned = False
        #: Whether the most recent ``solve`` on the owning problem actually
        #: went through the reduced path (False after fallbacks), which is
        #: what makes per-block pinning valid.
        self.last_was_reduced = False
        #: Cumulative counters across invalidations, for tests and
        #: ``--profile``.
        self.solve_calls = 0
        self.block_pins = 0
        self.invalidations = 0
        self.last_block_seconds: list[tuple[int, float]] = []

    # -- public surface -----------------------------------------------------

    def stats_dict(self, include_times: bool = True) -> dict | None:
        """Presolve/decomposition stats of the current reduction, or None."""
        reduction = self._reduction
        if reduction is None:
            return None
        out = reduction.stats.snapshot()
        out["solve_calls"] = self.solve_calls
        if include_times:
            out["block_solve_seconds"] = [
                (bid, round(sec, 6)) for bid, sec in self.last_block_seconds
            ]
        return out

    def on_rollback(self, checkpoint: Checkpoint) -> None:
        """Problem rows were truncated to ``checkpoint``; resync the overlay."""
        reduction = self._reduction
        if reduction is None:
            return
        if checkpoint.eq < reduction.snapshot.eq or checkpoint.ge < reduction.snapshot.ge:
            # Rows the reduction was computed from are gone: full recompute.
            self._reduction = None
            self._live = None
            self.invalidations += 1
        elif self._pinned:
            # Only post-snapshot rows, the rows of per-block pins, can be
            # gone: the mapping stays valid, and the live block models are
            # rebuilt lazily from the pristine partition.
            self._live = None
        self._pinned = False

    def pin_last_objective(self, tolerance: float) -> "float | None":
        """Pin every block at its last stage optimum (per-block lex cut).

        The stage objective is separable over blocks, so the exact
        lexicographic constraint "total objective stays at its optimum"
        decomposes into one pin per block.  The caller's ``tolerance`` —
        the margin the coupled whole-system cut row would carry — is
        allocated across the blocks proportionally to ``1 + |block
        optimum|``, so the per-block margins sum to ``tolerance`` and the
        pinned region is a *subset* of the coupled cut's (any point
        satisfying every block pin satisfies the summed cut).  The pinned
        stages therefore sit between the exact lexicographic optimum and
        the coupled-cut formulation — and the cut never couples blocks,
        which keeps every later stage a warm re-solve of a small
        persistent model.  Each block's share is floored at the solver's
        feasibility-tolerance scale so a pin can never render its block
        numerically infeasible; the floor only lifts the total above
        ``tolerance`` in the pathological many-tiny-blocks case.

        Returns the total applied margin (the sum of the per-block margins,
        in the objective's own units), or ``None`` when pinning is not
        valid — the previous solve did not go through the reduced path — in
        which case the caller must fall back to a plain cut row.
        """
        if not self.last_was_reduced or self._live is None:
            return None
        pinnable = [
            block
            for block in self._live
            if block.last_obj is not None and block.last_opt is not None
        ]
        weight_total = sum(1.0 + abs(b.last_opt) for b in pinnable)
        applied = 0.0
        for block in pinnable:
            share = (1.0 + abs(block.last_opt)) / weight_total
            margin = max(
                tolerance * share, 10 * _FEAS_TOL * (1.0 + abs(block.last_opt))
            )
            applied += margin
            terms, const = _pin_row(block.last_obj, block.last_opt, margin)
            block.backend.add_row(GE, terms, const)
            self.block_pins += 1
        self._pinned = True
        return applied

    def absorb_external_row(self, kind: str) -> None:
        """Mark the problem's newest ``kind`` row as already materialized.

        Used by :meth:`LPProblem.pin_objective`: the global cut row is kept
        in the problem's row storage (so rollbacks, diagnostics, and any
        later unreduced or recomputed-reduction solve see it), but its
        constraint is represented inside the live blocks by the per-block
        pins; unmarked, :meth:`_ensure` would take it for a new row and
        recompute the reduction.
        """
        self._applied[kind] = self.problem.backend.num_rows(kind)

    def solve(
        self,
        objective: "dict[int, float] | None",
        objective_const: float,
        bound: float,
    ) -> LPSolution:
        problem = self.problem
        self.last_was_reduced = False
        if self._disabled or len(problem.pool) == 0:
            return problem.backend.solve(problem, objective, objective_const, bound)
        if objective:
            # An objective column must be fixed outright or sit in the core;
            # an undeclared one grows the protected set, and ``_ensure``
            # recomputes the reduction around it.
            self._extra_protect.update(objective)
        for _ in range(5):
            try:
                self._ensure(bound)
                return self._solve_reduced(objective, objective_const, bound)
            except _Invalidate as stale:
                self._extra_protect.update(stale.protect)
                self._reduction = None
                self._live = None
                self._pinned = False
                self.invalidations += 1
        # Repeated invalidations without reaching a fixpoint (pathological);
        # stop reducing this problem for good rather than paying the
        # recompute on every solve.
        self._disabled = True
        return problem.backend.solve(problem, objective, objective_const, bound)

    # -- reduction lifecycle ------------------------------------------------

    def _protected(self) -> frozenset[int]:
        return frozenset(self.problem.protected_columns | self._extra_protect)

    def _ensure(self, bound: float) -> None:
        problem = self.problem
        backend = problem.backend
        reduction = self._reduction
        if reduction is not None:
            if (
                reduction.ncols != len(problem.pool)
                or reduction.bound != bound
                or not (self._protected() <= reduction.protected)
            ):
                raise _Invalidate
        else:
            self._reduction = reduction = _compute_reduction(
                problem, bound, self._protected()
            )
            self._live = None
            self._pinned = False
        if self._live is None:
            self._live = self._build_live()
            self._applied = {EQ: reduction.snapshot.eq, GE: reduction.snapshot.ge}
        if any(backend.num_rows(kind) != self._applied[kind] for kind in (EQ, GE)):
            # The live blocks hold the snapshot's rows plus the absorbed
            # per-block pins; any other row, or a rollback below the
            # snapshot, needs a new reduction.
            raise _Invalidate

    def _build_live(self) -> list[_LiveBlock]:
        # Each block solves through a fresh instance of the problem's
        # backend class, with its robustness cascade, warm-start policy and
        # persistent HiGHS model.
        live = []
        for pristine in self._reduction.blocks:
            backend = type(self.problem.backend)()
            for kind, terms, const in pristine.rows:
                backend.add_row(kind, terms, const)
            live.append(_LiveBlock(pristine, backend, self.problem))
        return live

    # -- solving ------------------------------------------------------------

    def _solve_reduced(
        self,
        objective: "dict[int, float] | None",
        objective_const: float,
        bound: float,
    ) -> LPSolution:
        reduction = self._reduction
        self.solve_calls += 1
        n = reduction.ncols
        values = np.zeros(n)
        if len(reduction.fixed_cols):
            values[reduction.fixed_cols] = reduction.fixed_vals
        total = 0.0
        status = "optimal"

        # Split the objective over blocks.  ``solve`` protected every
        # objective column, and a protected column is either fixed by a
        # singleton equality (a constant here) or in the core: the column
        # rules skip it, and a row-free one gets a singleton block.
        block_objs: dict[int, dict[int, float]] = {}
        for col, coeff in (objective or {}).items():
            fixed = reduction.fixed_of.get(col)
            if fixed is not None:
                total += coeff * fixed
                continue
            bid = reduction.col_block[col]
            block_objs.setdefault(bid, {})[self._live[bid].local_of[col]] = coeff

        self.last_block_seconds = []
        deadline = current_deadline()
        for bid, block in enumerate(self._live):
            if deadline is not None:
                # Between-block boundary: each block solve also caps itself
                # via the backend, but a long block chain must not overshoot
                # the budget by a whole block.
                deadline.check("lp.block")
            local_obj = block_objs.get(bid)
            started = time.perf_counter()
            solution = block.backend.solve(block.shim, local_obj, 0.0, bound)
            self.last_block_seconds.append((bid, time.perf_counter() - started))
            values[block.gcols] = solution.values
            if local_obj:
                total += solution.objective
                block.last_obj = local_obj
                block.last_opt = solution.objective
            else:
                block.last_obj = None
                block.last_opt = None
            status = _worse_status(status, solution.status)

        # Postsolve: recover eliminated columns by a reverse walk of the
        # elimination log.  A record's residual terms were live at its
        # elimination time, so they are either core columns (solved above)
        # or columns eliminated *later* (already recovered by the walk).
        #
        # The eliminations drop the eliminated column's ±bound box, so the
        # core is a relaxation; on a degenerate optimal face the blocks may
        # pick a vertex whose lifted value lands outside the box.  Such a
        # solution does not extend to the unreduced system.  The cheap cure
        # is a *cleanup pass*: re-solve the box-riding blocks on their
        # (solver-tolerance) optimal face, minimizing total certificate
        # mass — small certificates lift cleanly.  If even the cleanup
        # vertex does not lift, protecting the affected columns puts them
        # (and their boxes) back into the core, which cuts off exactly the
        # offending ray, and the solve retries on the recomputed reduction.
        if self._postsolve(values, bound):
            self._cleanup_riders(values, bound)
            out_of_box = self._postsolve(values, bound)
            if out_of_box:
                raise _Invalidate(out_of_box)

        value = total + objective_const
        self.last_was_reduced = True
        return LPSolution(values, value, status)

    def _postsolve(self, values: np.ndarray, bound: float) -> list[int]:
        """Reverse-walk the elimination log; return columns lifted out of
        the ``±bound`` box (empty when the solution extends cleanly)."""
        box = bound * (1.0 + 1e-9)
        out_of_box: list[int] = []
        for rule, col, coeff, rhs, rest in reversed(self._reduction.elim):
            acc = rhs
            for other, val in rest.items():
                acc -= val * values[other]
            value = acc / coeff
            if rule == _GE_SLACK and value < 0.0:
                value = 0.0
            if abs(value) > box:
                out_of_box.append(col)
            values[col] = value
        return out_of_box

    def _cleanup_riders(self, values: np.ndarray, bound: float) -> None:
        """Move box-riding blocks to a small-certificate optimal vertex.

        For every block with a core variable near the ``±bound`` box, pin
        the block's just-proven optimum (within the solver's own feasibility
        tolerance — so the pinned face is exactly what the solver certified)
        and minimize a pull-inward objective over it: unit cost on every
        certificate multiplier plus a unit pull on each box-riding column,
        directed away from its box end.  The reported stage objective stays
        the first solve's exact optimum; only the *witness point* moves,
        toward the interior vertices that lift into the unreduced variable
        space.  A solver failure (:class:`LPError`) leaves ``values`` as they
        were — the caller falls back to protection + recompute; anything
        else, an :class:`~repro.deadline.AnalysisTimeout` included,
        propagates.
        """
        for block in self._live:
            block_values = values[block.gcols]
            magnitudes = np.abs(block_values)
            if not magnitudes.size or magnitudes.max() < 0.9 * bound:
                continue
            cleanup_obj = {j: 1.0 for j in block.shim.nonneg_indices}
            for j in np.nonzero(magnitudes >= 0.9 * bound)[0].tolist():
                cleanup_obj[j] = 1.0 if block_values[j] > 0 else -1.0
            backend = block.backend
            checkpoint = backend.checkpoint()
            try:
                if block.last_obj is not None and block.last_opt is not None:
                    margin = 1e-6 * (1.0 + abs(block.last_opt))
                    terms, const = _pin_row(block.last_obj, block.last_opt, margin)
                    backend.add_row(GE, terms, const)
                cleanup = backend.solve(block.shim, cleanup_obj, 0.0, bound)
            except LPError:
                continue  # keep the original vertex; the caller re-checks
            finally:
                backend.rollback(checkpoint)
            values[block.gcols] = cleanup.values


# ---------------------------------------------------------------------------
# Presolve + decomposition
# ---------------------------------------------------------------------------


def _nonneg_mask(problem: "LPProblem", n: int) -> np.ndarray:
    """Boolean nonnegativity mask over the variable pool."""
    mask = np.zeros(n, dtype=bool)
    if problem.nonneg_indices:
        mask[np.fromiter(problem.nonneg_indices, dtype=np.int64, count=-1)] = True
    return mask


def _infeasible(problem: "LPProblem", detail: str) -> LPInfeasibleError:
    return LPInfeasibleError(
        "LP infeasible: no potential annotation of this shape exists "
        f"(presolve: {detail})",
        diagnostics=problem.infeasibility_diagnostics(),
    )


def _compute_reduction(
    problem: "LPProblem", bound: float, protected: frozenset[int]
) -> _Reduction:
    """Run the presolve cascade and component split over the row buffers.

    Rows are bulk-exported from the backend's CSR triplet buffers
    (vectorized ingestion and occupancy counts); the cascade itself runs on
    compressed per-row dictionaries, which profiling shows is the faster
    representation once rules start rewriting individual rows.
    """
    started = time.perf_counter()
    backend = problem.backend
    n = len(problem.pool)
    snapshot = backend.checkpoint()
    nonneg = _nonneg_mask(problem, n)
    stats = ReductionStats(cols=n)

    # -- vectorized ingestion ----------------------------------------------
    rows: list[list] = []  # mutable [kind, terms, rhs]
    for kind in (EQ, GE):
        starts, cols, vals, rhs = backend.row_arrays(kind)
        stats.nnz += len(cols)
        cols_l = cols.tolist()
        vals_l = vals.tolist()
        rhs_l = rhs.tolist()
        for r in range(len(rhs_l)):
            lo, hi = starts[r], starts[r + 1]
            rows.append([kind, dict(zip(cols_l[lo:hi], vals_l[lo:hi])), rhs_l[r]])
    stats.rows = len(rows)

    alive = [True] * len(rows)
    colrows: dict[int, set[int]] = {}
    for i, (_, terms, _) in enumerate(rows):
        for col in terms:
            colrows.setdefault(col, set()).add(i)

    fixed_of: dict[int, float] = {}
    elim: list[tuple[str, int, float, float, dict[int, float]]] = []

    def check_residual(kind: str, rhs: float) -> None:
        slack = _FEAS_TOL * (1.0 + abs(rhs))
        if kind == EQ and abs(rhs) > slack:
            raise _infeasible(problem, f"equality residual {rhs:g} after substitution")
        if kind == GE and rhs > slack:
            raise _infeasible(problem, f"inequality residual {rhs:g} after substitution")

    def kill_row(i: int) -> None:
        alive[i] = False
        for col in rows[i][1]:
            colrows[col].discard(i)

    # -- the singleton cascade ---------------------------------------------
    #
    # Worklist-driven: rather than re-scanning every row and column per
    # pass, each rule queues exactly the rows/columns whose occurrence
    # counts it changed.  Stacks may hold duplicates; every pop re-checks
    # the current state, so stale entries are cheap no-ops.
    row_work: list[int] = list(range(len(rows)))
    col_work: list[int] = list(colrows)

    def queue_row_cols(i: int) -> None:
        col_work.extend(rows[i][1])

    while row_work or col_work:
        stats.substitution_passes += 1
        while row_work:
            i = row_work.pop()
            if not alive[i]:
                continue
            kind, terms, rhs = rows[i]
            if not terms:
                check_residual(kind, rhs)
                alive[i] = False
                continue
            if kind == EQ and len(terms) == 1:
                # Singleton equality row: fix the variable outright (exact).
                ((col, coeff),) = terms.items()
                if coeff == 0.0:
                    continue  # degenerate; leave for the solver
                value = rhs / coeff
                if nonneg[col] and value < -_FEAS_TOL:
                    raise _infeasible(
                        problem, f"certificate multiplier forced to {value:g} < 0"
                    )
                if abs(value) > bound:
                    raise _infeasible(
                        problem, f"variable forced to {value:g} beyond the ±{bound:g} box"
                    )
                fixed_of[col] = value
                kill_row(i)
                # Substitution only changes the fixed column's occurrences
                # (other columns keep their counts), so only the touched
                # rows re-queue.
                for j in list(colrows[col]):
                    rows[j][2] -= rows[j][1].pop(col) * value
                    row_work.append(j)
                colrows[col] = set()
        while col_work and not row_work:
            col = col_work.pop()
            rset = colrows.get(col)
            if rset is None or len(rset) != 1 or col in fixed_of or col in protected:
                continue
            (i,) = rset
            if not alive[i]:  # pragma: no cover - colrows tracks live rows
                continue
            kind, terms, rhs = rows[i]
            coeff = terms.get(col)
            if coeff is None or coeff == 0.0:
                continue
            if kind == EQ:
                rest = {c: v for c, v in terms.items() if c != col}
                if not nonneg[col]:
                    # Free singleton: the row is satisfiable for any value of
                    # the other columns; recover the value in postsolve.
                    elim.append((_FREE, col, coeff, rhs, rest))
                    stats.free_cols += 1
                    queue_row_cols(i)
                    kill_row(i)
                else:
                    # Implied slack: rest + coeff*λ == rhs with λ >= 0 means
                    # rest >= rhs (coeff < 0) or rest <= rhs (coeff > 0).
                    elim.append((_SLACK, col, coeff, rhs, rest))
                    stats.slack_cols += 1
                    del terms[col]
                    colrows[col].discard(i)
                    if coeff > 0.0:
                        rows[i][1] = {c: -v for c, v in terms.items()}
                        rows[i][2] = -rhs
                    rows[i][0] = GE
                    row_work.append(i)
            else:
                if not nonneg[col]:
                    rest = {c: v for c, v in terms.items() if c != col}
                    elim.append((_FREE, col, coeff, rhs, rest))
                    stats.free_cols += 1
                    queue_row_cols(i)
                    kill_row(i)
                elif coeff > 0.0:
                    # λ alone satisfies the inequality; postsolve picks the
                    # smallest feasible λ.
                    rest = {c: v for c, v in terms.items() if c != col}
                    elim.append((_GE_SLACK, col, coeff, rhs, rest))
                    stats.slack_cols += 1
                    queue_row_cols(i)
                    kill_row(i)
                else:
                    # λ only hurts the inequality: any optimum can take λ = 0.
                    # An optimality (not substitution) fix, valid while no
                    # objective or later row touches the column: objective
                    # columns are protected, and a later row recomputes.
                    fixed_of[col] = 0.0
                    del terms[col]
                    colrows[col].discard(i)
                    row_work.append(i)

    elim_cols = {col for _, col, _, _, _ in elim}
    stats.fixed_cols = len(fixed_of)

    # -- rows made vacuous by the variable bounds ---------------------------
    for i, (kind, terms, rhs) in enumerate(rows):
        if not alive[i] or kind != GE or not terms:
            continue
        min_act = 0.0
        for col, val in terms.items():
            if val > 0.0:
                min_act += val * (0.0 if nonneg[col] else -bound)
            else:
                min_act += val * bound
        if min_act >= rhs:
            stats.vacuous_rows += 1
            kill_row(i)

    # -- duplicate rows (exact, via hashing) --------------------------------
    seen: set = set()
    for i, (kind, terms, rhs) in enumerate(rows):
        if not alive[i] or not terms:
            continue
        items = tuple(terms.items())
        key = (kind, items, rhs)
        if key in seen:
            stats.dup_rows += 1
            kill_row(i)
        else:
            seen.add(key)

    # -- zero columns -------------------------------------------------------
    zero_cols = {
        col
        for col, rset in colrows.items()
        if not rset and col not in fixed_of and col not in elim_cols
    }
    # Columns never mentioned by any row at all:
    mentioned = np.zeros(n, dtype=bool)
    if colrows:
        mentioned[np.fromiter(colrows, dtype=np.int64, count=len(colrows))] = True
    if fixed_of:
        mentioned[np.fromiter(fixed_of, dtype=np.int64, count=len(fixed_of))] = True
    if elim_cols:
        mentioned[np.fromiter(elim_cols, dtype=np.int64, count=len(elim_cols))] = True
    zero_cols.update(np.nonzero(~mentioned)[0].tolist())
    # Protected row-free columns become singleton blocks below, so
    # objectives and pins address them like any core column (protection
    # only guards against the column rules, and a row-free column has no
    # row to keep).
    protected_zero = sorted(zero_cols & protected)
    zero_cols.difference_update(protected_zero)
    stats.zero_cols = len(zero_cols)

    # -- connected components of the variable-row bipartite graph -----------
    parent: dict[int, int] = {}

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    live_rows = [i for i in range(len(rows)) if alive[i] and rows[i][1]]
    for i in live_rows:
        terms = rows[i][1]
        it = iter(terms)
        first = next(it)
        if first not in parent:
            parent[first] = first
        root = find(first)
        for col in it:
            if col not in parent:
                parent[col] = root
                continue
            other = find(col)
            if other != root:
                parent[other] = root

    block_of_root: dict[int, int] = {}
    block_cols: list[list[int]] = []
    col_block: dict[int, int] = {}
    for col in parent:
        root = find(col)
        bid = block_of_root.get(root)
        if bid is None:
            bid = len(block_cols)
            block_of_root[root] = bid
            block_cols.append([])
        block_cols[bid].append(col)
        col_block[col] = bid

    blocks: list[_PristineBlock] = []
    for cols_list in block_cols:
        gcols = np.asarray(cols_list, dtype=np.int64)
        local_of = {int(c): i for i, c in enumerate(cols_list)}
        local_nonneg = {i for i, c in enumerate(cols_list) if nonneg[c]}
        blocks.append(_PristineBlock(gcols, local_of, local_nonneg, []))
    for col in protected_zero:
        bid = len(blocks)
        blocks.append(
            _PristineBlock(
                np.asarray([col], dtype=np.int64),
                {col: 0},
                {0} if nonneg[col] else set(),
                [],
            )
        )
        col_block[col] = bid

    reduced_nnz = 0
    for i in live_rows:
        kind, terms, rhs = rows[i]
        bid = col_block[next(iter(terms))]
        block = blocks[bid]
        local = block.local_of
        block.rows.append((kind, {local[c]: v for c, v in terms.items()}, -rhs))
        reduced_nnz += len(terms)

    if fixed_of:
        fixed_cols = np.fromiter(fixed_of, dtype=np.int64, count=len(fixed_of))
        fixed_vals = np.fromiter(
            fixed_of.values(), dtype=np.float64, count=len(fixed_of)
        )
    else:
        fixed_cols = np.empty(0, dtype=np.int64)
        fixed_vals = np.empty(0, dtype=np.float64)

    stats.reduced_cols = len(parent) + len(protected_zero)
    stats.reduced_rows = len(live_rows)
    stats.reduced_nnz = reduced_nnz
    stats.components = len(blocks)
    stats.component_sizes = sorted((len(b.gcols) for b in blocks), reverse=True)
    stats.presolve_seconds = time.perf_counter() - started

    return _Reduction(
        snapshot=snapshot,
        ncols=n,
        bound=bound,
        protected=protected,
        fixed_of=fixed_of,
        fixed_cols=fixed_cols,
        fixed_vals=fixed_vals,
        elim=elim,
        col_block=col_block,
        blocks=blocks,
        stats=stats,
    )
