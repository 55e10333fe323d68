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
  postsolve: a recovered value outside ``±lp_bound`` disables the layer
  for that problem), so bounds with the reduction on or off agree to
  solver tolerance.
* **Block structure.**  The reduced core decomposes per calling context:
  connected components of the variable–row bipartite graph are solved as
  *separate* LP models a fraction of the full size, with block solutions
  mapped back to the full variable space.
* **Warm lexicographic re-solves.**  The pipeline's lexicographic loop adds
  one cut row per stage.  Cut rows are projected into reduced coordinates
  and appended to the live block models — blocks a cut couples are merged
  on the fly — so every stage after the first re-optimizes a persistent
  per-block model from its previous basis instead of cold-starting the
  full system.

Everything here is an *overlay*: the :class:`~repro.lp.problem.LPProblem`
row storage is never mutated and checkpoints/rollbacks keep their existing
semantics.  Columns that appear in stage objectives or cut rows must
survive into the core; the pipeline declares them up front
(:meth:`LPProblem.protect_columns`), and an undeclared objective/cut column
that was eliminated triggers an automatic recompute with that column
protected.  The layer is the only solve path the analyzer takes; the
direct backend solve (``LPProblem.solve(reduce=False)``) survives as the
fallback :meth:`ReducedSolver.solve` takes when a reduction cannot be
used, and as the oracle against which ``tests/test_lp_reduce.py`` checks
bound-level parity on the registry and fuzz corpus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.deadline import current_deadline
from repro.lp.backends.base import EQ, GE, Checkpoint
from repro.lp.core import LPInfeasibleError, LPSolution

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.lp.backends.base import LPBackend
    from repro.lp.problem import LPProblem

__all__ = ["ReducedSolver", "ReductionStats"]

#: Stacking gate: pristine blocks are concatenated into one block-diagonal
#: live model when at least ``_STACK_MIN_BLOCKS`` of them share a shape and
#: each is at most ``_STACK_MAX_COLS`` columns wide.  Block-diagonal
#: stacking is exact — the blocks stay independent and the stage
#: objectives separable, so the joint optimum restricts to each block's
#: own optimum — and it amortizes per-solve overhead (model build, solver
#: presolve) over the whole group, which is where the many-tiny-blocks
#: workloads (fuzz corpus, lexicographic rider blocks) spend their time.
#: The partition is a deterministic function of the reduction alone.
_STACK_MIN_BLOCKS = 3
_STACK_MAX_COLS = 160

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

    ``protect`` names columns that must survive the next presolve because an
    objective or cut row referenced them after they had been eliminated.
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
    """A pristine block (or a stacked / cut-merged union) with a live backend."""

    __slots__ = (
        "gcols", "local_of", "backend", "shim", "pristine_ids",
        "dirty", "last_values", "last_obj", "last_opt",
    )

    def __init__(
        self,
        gcols: np.ndarray,
        local_of: dict[int, int],
        nonneg: set[int],
        backend: "LPBackend",
        owner: "LPProblem",
        pristine_ids: tuple[int, ...],
    ) -> None:
        self.gcols = gcols
        self.local_of = local_of
        self.backend = backend
        self.shim = _BlockProblem(len(gcols), nonneg, owner)
        self.pristine_ids = pristine_ids
        #: ``dirty`` marks blocks whose row set changed since the last solve;
        #: a clean block with no objective terms keeps its previous feasible
        #: point instead of paying another (trivial but non-free) solve.
        self.dirty = True
        self.last_values: np.ndarray | None = None
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
    #: Columns fixed by *optimality* arguments (λ = 0 because it can only
    #: hurt its row), not by exact substitution: valid for the solved core,
    #: but a later objective or row touching one must resurrect it.
    opt_fixed: set[int]
    fixed_cols: np.ndarray  # full-space ids (parallel to fixed_vals)
    fixed_vals: np.ndarray
    #: Postsolve log, in elimination order: ``(rule, col, coeff, rhs, rest)``
    #: where the eliminated column satisfied ``rest·x + coeff*col == / >= rhs``
    #: at elimination time.  Values are recovered by a reverse walk.
    elim: list[tuple[str, int, float, float, dict[int, float]]]
    elim_cols: set[int]
    zero_cols: set[int]
    col_block: dict[int, int]  # full col -> pristine block id (core cols only)
    blocks: list[_PristineBlock]
    stats: ReductionStats


#: Rank of each robustness-cascade rung; a multi-block solve reports the
#: worst rung any block needed.
_STATUS_RANK = {"optimal": 0, "optimal:regularized": 1, "optimal:boxed": 2}


def _worse_status(a: str, b: str) -> str:
    return b if _STATUS_RANK.get(b, 2) > _STATUS_RANK.get(a, 2) else a


def _pin_row(
    obj: dict[int, float], opt: float, margin: float, minimize: bool
) -> tuple[dict[int, float], float]:
    """GE-row ``(terms, const)`` holding ``obj`` within ``margin`` of ``opt``.

    Minimizing: ``obj·x <= opt + margin`` i.e. ``-obj·x >= -(opt + margin)``;
    maximizing: ``obj·x >= opt - margin``.  ``const`` follows the backend
    ``add_row`` convention (``rhs = -const``).
    """
    if minimize:
        return {j: -c for j, c in obj.items()}, opt + margin
    return dict(obj), -(opt - margin)


class ReducedSolver:
    """Solve an :class:`LPProblem` through its reduced, decomposed form.

    One instance is attached lazily to a problem the first time it solves
    with the reduction enabled.  The reduction (presolve result + block
    partition) is computed from the backend's row buffers at that point and
    reused for every subsequent solve; rows added afterwards — the
    lexicographic stage cuts — are projected into reduced coordinates and
    appended to the live block models, merging blocks a cut couples.
    Rollbacks restore the pristine partition (below-snapshot rollbacks
    invalidate the reduction entirely).

    Thread safety follows the problem façade: callers serialize solves and
    rollbacks (the pipeline's ``ConstraintSystem.solve_lock`` does).
    """

    def __init__(self, problem: "LPProblem") -> None:
        self.problem = problem
        self._reduction: _Reduction | None = None
        self._live: list[_LiveBlock] | None = None
        self._live_of_pristine: dict[int, int] = {}
        self._applied: dict[str, int] = {EQ: 0, GE: 0}
        self._extra_protect: set[int] = set()
        self._disabled = False
        self._pinned = False
        #: Eliminated zero columns whose stage choice was pinned by the
        #: lexicographic loop; later stages keep these values instead of
        #: re-deriving them from their own objective signs.
        self._pinned_zero: dict[int, float] = {}
        #: Whether the most recent ``solve`` on the owning problem actually
        #: went through the reduced path (False after fallbacks), which is
        #: what makes per-block pinning valid.
        self.last_was_reduced = False
        self._last_zero_choices: dict[int, float] = {}
        self._last_minimize = True
        #: Cumulative counters across merges/invalidations, for tests and
        #: ``--profile``.
        self.solve_calls = 0
        self.block_merges = 0
        self.block_pins = 0
        self.invalidations = 0
        self.last_block_seconds: list[tuple[int, float]] = []
        #: Live-partition stacking outcome of the current ``_build_live``:
        #: how many same-shape groups were concatenated and their sizes.
        self.stacked_groups = 0
        self.stacked_sizes: list[int] = []

    # -- public surface -----------------------------------------------------

    def stats_dict(self, include_times: bool = True) -> dict | None:
        """Presolve/decomposition stats of the current reduction, or None."""
        reduction = self._reduction
        if reduction is None:
            return None
        out = reduction.stats.snapshot()
        out["solve_calls"] = self.solve_calls
        out["block_merges"] = self.block_merges
        out["stacked_groups"] = self.stacked_groups
        out["stacked_sizes"] = list(self.stacked_sizes)
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
        elif (
            self._pinned
            or checkpoint.eq < self._applied[EQ]
            or checkpoint.ge < self._applied[GE]
        ):
            # Only post-snapshot rows (cuts / per-block pins) were dropped:
            # the mapping stays valid, the live block models are rebuilt
            # lazily from the pristine partition.
            self._live = None
        self._pinned = False
        self._pinned_zero.clear()
        self._applied = {EQ: min(self._applied[EQ], checkpoint.eq),
                        GE: min(self._applied[GE], checkpoint.ge)}

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
        the coupled-cut formulation — and no blocks ever need merging,
        which keeps every later stage a warm re-solve of a small
        persistent model.  Each block's share is floored at the solver's
        feasibility-tolerance scale so a pin can never render its block
        numerically infeasible; the floor only lifts the total above
        ``tolerance`` in the pathological many-tiny-blocks case.

        Objective terms on eliminated zero columns are pinned analytically:
        the stage solve already chose each such column's optimal box end,
        and later stages simply keep that value (an exact, zero-margin pin).

        Returns the total applied margin (the sum of the per-block margins,
        in the objective's own units), or ``None`` when pinning is not
        valid — the previous solve did not go through the reduced path — in
        which case the caller must fall back to a plain cut row.
        """
        if not self.last_was_reduced or self._live is None:
            return None
        self._pinned_zero.update(self._last_zero_choices)
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
            terms, const = _pin_row(
                block.last_obj, block.last_opt, margin, self._last_minimize
            )
            block.backend.add_row(GE, terms, const)
            block.dirty = True
            self.block_pins += 1
        self._pinned = True
        return applied

    def absorb_external_row(self, kind: str) -> None:
        """Mark the problem's newest ``kind`` row as already materialized.

        Used by :meth:`LPProblem.pin_objective`: the global cut row is kept
        in the problem's row storage (so rollbacks, diagnostics, and any
        later unreduced or recomputed-reduction solve see it), but its
        constraint is represented inside the live blocks by the per-block
        pins, so projecting it again would double-pin.
        """
        self._applied[kind] = self.problem.backend.num_rows(kind)

    def solve(
        self,
        objective: "dict[int, float] | None",
        objective_const: float,
        minimize: bool,
        bound: float,
        regularization: float,
    ) -> LPSolution:
        problem = self.problem
        self.last_was_reduced = False
        if self._disabled or len(problem.pool) == 0:
            return problem.backend.solve(
                problem, objective, objective_const, minimize, bound, regularization
            )
        for _ in range(5):
            try:
                self._ensure(bound)
                return self._solve_reduced(
                    objective, objective_const, minimize, bound, regularization
                )
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
        return problem.backend.solve(
            problem, objective, objective_const, minimize, bound, regularization
        )

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
                or backend.num_rows(EQ) < reduction.snapshot.eq
                or backend.num_rows(GE) < reduction.snapshot.ge
                or not (self._protected() <= reduction.protected)
            ):
                raise _Invalidate
        else:
            self._reduction = reduction = _compute_reduction(
                problem, bound, self._protected()
            )
            self._live = None
            self._pinned = False
            self._applied = {EQ: reduction.snapshot.eq, GE: reduction.snapshot.ge}
        if self._live is None:
            self._live = self._build_live()
            self._applied = {EQ: reduction.snapshot.eq, GE: reduction.snapshot.ge}
        self._apply_new_rows()

    def _block_backend(self) -> "LPBackend":
        # Blocks solve through a fresh instance of the problem's own backend
        # class, inheriting its robustness cascade, warm-start policy, and
        # (for the incremental backend) the persistent HiGHS model.
        return type(self.problem.backend)()

    def _stack_plan(self) -> list[tuple[int, ...]]:
        """Partition the pristine blocks into live-model groups.

        Groups of at least ``_STACK_MIN_BLOCKS`` same-shape small blocks —
        shape meaning (columns, eq rows, ge rows, nonzeros) — are stacked
        into one block-diagonal model; everything else stays one model per
        block.  Emission order follows the first member of each group, so
        the plan (and hence every downstream solve) is deterministic.
        """
        blocks = self._reduction.blocks

        def shape(p: _PristineBlock) -> tuple[int, int, int, int]:
            neq = sum(1 for kind, _, _ in p.rows if kind == EQ)
            return (
                len(p.gcols),
                neq,
                len(p.rows) - neq,
                sum(len(terms) for _, terms, _ in p.rows),
            )

        groups: dict[tuple, list[int]] = {}
        for bid, pristine in enumerate(blocks):
            groups.setdefault(shape(pristine), []).append(bid)
        stacked: dict[int, tuple[int, ...]] = {}
        for key, members in groups.items():
            if len(members) >= _STACK_MIN_BLOCKS and key[0] <= _STACK_MAX_COLS:
                stacked[members[0]] = tuple(members)
        plan: list[tuple[int, ...]] = []
        claimed = {bid for group in stacked.values() for bid in group}
        for bid in range(len(blocks)):
            if bid in stacked:
                plan.append(stacked[bid])
            elif bid not in claimed:
                plan.append((bid,))
        return plan

    def _build_live(self) -> list[_LiveBlock]:
        blocks = self._reduction.blocks
        plan = self._stack_plan()
        self.stacked_sizes = [len(group) for group in plan if len(group) > 1]
        self.stacked_groups = len(self.stacked_sizes)
        live = []
        self._live_of_pristine = {}
        for group in plan:
            parts = [blocks[bid] for bid in group]
            backend = self._block_backend()
            if len(parts) == 1:
                pristine = parts[0]
                gcols = pristine.gcols
                local_of = pristine.local_of
                nonneg = pristine.nonneg
                for kind, terms, const in pristine.rows:
                    backend.add_row(kind, terms, const)
            else:
                gcols = np.concatenate([p.gcols for p in parts])
                local_of = {}
                nonneg = set()
                offset = 0
                for part in parts:
                    for col, local in part.local_of.items():
                        local_of[col] = local + offset
                    nonneg.update(local + offset for local in part.nonneg)
                    for kind, terms, const in part.rows:
                        backend.add_row(
                            kind,
                            {j + offset: v for j, v in terms.items()},
                            const,
                        )
                    offset += len(part.gcols)
            for bid in group:
                self._live_of_pristine[bid] = len(live)
            live.append(
                _LiveBlock(
                    gcols, local_of, nonneg, backend, self.problem, tuple(group)
                )
            )
        return live

    def _live_block_of(self, col: int) -> int | None:
        """Index into ``self._live`` of the block holding full-space ``col``."""
        bid = self._reduction.col_block.get(col)
        if bid is None:
            return None
        return self._live_of_pristine.get(bid)

    def _apply_new_rows(self) -> None:
        backend = self.problem.backend
        for kind in (EQ, GE):
            total = backend.num_rows(kind)
            applied = self._applied[kind]
            if total == applied:
                continue
            starts, cols, vals, rhs = backend.row_arrays(kind, applied, total)
            for r in range(total - applied):
                lo, hi = starts[r], starts[r + 1]
                self._apply_row(kind, cols[lo:hi], vals[lo:hi], float(rhs[r]))
                # Advance per row: an infeasible row raising mid-batch must
                # not leave already-projected rows unaccounted (a later
                # rollback would otherwise keep them as phantom constraints).
                self._applied[kind] = applied + r + 1

    def _apply_row(self, kind: str, cols: np.ndarray, vals: np.ndarray, rhs: float) -> None:
        """Project one post-snapshot row into reduced coordinates and append."""
        reduction = self._reduction
        live_terms: list[tuple[int, int, float]] = []  # (live block, full col, coeff)
        touched: list[int] = []
        resurrect: list[int] = []
        for col, val in zip(cols.tolist(), vals.tolist()):
            if col in reduction.opt_fixed:
                # Fixed by an optimality argument only; a new row touching
                # it changes what "optimal" means, so put it back.
                resurrect.append(col)
                continue
            fixed = reduction.fixed_of.get(col)
            if fixed is not None:
                rhs -= val * fixed
                continue
            if col in reduction.elim_cols or col in reduction.zero_cols:
                # The row references a column presolve eliminated; recompute
                # with that column protected into the core.
                resurrect.append(col)
                continue
            lid = self._live_block_of(col)
            if lid is None:
                resurrect.append(col)
                continue
            live_terms.append((lid, col, val))
            if lid not in touched:
                touched.append(lid)
        if resurrect:
            raise _Invalidate(resurrect)
        if not touched:
            # Fully resolved by fixed columns: a residual feasibility check.
            slack = _FEAS_TOL * (1.0 + abs(rhs))
            if (kind == EQ and abs(rhs) > slack) or (kind == GE and rhs > slack):
                raise LPInfeasibleError(
                    "LP infeasible: a lexicographic cut contradicts presolve-"
                    "fixed variables",
                    diagnostics=self.problem.infeasibility_diagnostics(),
                )
            return
        if len(touched) > 1:
            target = self._merge(touched)
        else:
            target = self._live[touched[0]]
        terms = {target.local_of[col]: val for _, col, val in live_terms}
        target.backend.add_row(kind, terms, -rhs)
        target.dirty = True

    def _merge(self, live_ids: list[int]) -> _LiveBlock:
        """Fuse the live blocks a cut row couples into one model.

        The merged model re-ingests every constituent's current rows —
        including cuts appended earlier in the lexicographic loop — in
        block order, so the merged system is exactly the union of the
        constituents.  The constituents' backends are discarded; rollback
        restores the pristine partition.
        """
        self.block_merges += 1
        parts = [self._live[i] for i in sorted(live_ids)]
        gcols = np.concatenate([p.gcols for p in parts])
        local_of: dict[int, int] = {}
        nonneg: set[int] = set()
        offset = 0
        for part in parts:
            for col, local in part.local_of.items():
                local_of[col] = local + offset
            nonneg.update(local + offset for local in part.shim.nonneg_indices)
            offset += len(part.gcols)
        backend = self._block_backend()
        for kind in (EQ, GE):
            offset = 0
            for part in parts:
                starts, pcols, pvals, prhs = part.backend.row_arrays(kind)
                for r in range(len(prhs)):
                    lo, hi = starts[r], starts[r + 1]
                    terms = {
                        int(c) + offset: float(v)
                        for c, v in zip(pcols[lo:hi], pvals[lo:hi])
                    }
                    backend.add_row(kind, terms, -float(prhs[r]))
                offset += len(part.gcols)
        merged = _LiveBlock(
            gcols,
            local_of,
            nonneg,
            backend,
            self.problem,
            tuple(pid for p in parts for pid in p.pristine_ids),
        )
        self._live = [b for i, b in enumerate(self._live) if i not in set(live_ids)]
        self._live.append(merged)
        self._live_of_pristine = {
            pid: i for i, block in enumerate(self._live) for pid in block.pristine_ids
        }
        return merged

    # -- solving ------------------------------------------------------------

    def _solve_reduced(
        self,
        objective: "dict[int, float] | None",
        objective_const: float,
        minimize: bool,
        bound: float,
        regularization: float,
    ) -> LPSolution:
        reduction = self._reduction
        self.solve_calls += 1
        n = reduction.ncols
        values = np.zeros(n)
        if len(reduction.fixed_cols):
            values[reduction.fixed_cols] = reduction.fixed_vals
        total = 0.0
        status = "optimal"

        # Split the objective over blocks; fixed columns contribute a
        # constant, eliminated zero columns sit at their optimal bound.
        block_objs: dict[int, dict[int, float]] = {}
        zero_terms: list[tuple[int, float]] = []
        self._last_zero_choices = {}
        if objective:
            resurrect: list[int] = []
            for col, coeff in objective.items():
                if col in reduction.opt_fixed:
                    # λ = 0 was an optimality choice for objective-free
                    # columns; an objective on it invalidates the choice.
                    resurrect.append(col)
                    continue
                fixed = reduction.fixed_of.get(col)
                if fixed is not None:
                    total += coeff * fixed
                    continue
                if col in reduction.zero_cols:
                    zero_terms.append((col, coeff))
                    continue
                if col in reduction.elim_cols:
                    resurrect.append(col)
                    continue
                lid = self._live_block_of(col)
                if lid is None:
                    resurrect.append(col)
                    continue
                block = self._live[lid]
                block_objs.setdefault(lid, {})[block.local_of[col]] = coeff
            if resurrect:
                raise _Invalidate(resurrect)
            for col, coeff in zero_terms:
                # A column in no row: the solver would drive it to whichever
                # end of its box the cost prefers — unless an earlier
                # lexicographic stage already pinned its choice.
                pinned = self._pinned_zero.get(col)
                if pinned is not None:
                    val = pinned
                else:
                    cost = coeff if minimize else -coeff
                    if cost > 0.0:
                        val = 0.0 if col in self.problem.nonneg_indices else -bound
                    elif cost < 0.0:
                        val = bound
                    else:  # pragma: no cover - zero coefficients are dropped upstream
                        val = 0.0
                values[col] = val
                total += coeff * val
                self._last_zero_choices[col] = val

        self.last_block_seconds = []
        pending: list[tuple[int, _LiveBlock, "dict[int, float] | None"]] = []
        for lid, block in enumerate(self._live):
            local_obj = block_objs.get(lid)
            if local_obj is None and not block.dirty and block.last_values is not None:
                # No objective over this block and no new rows: the previous
                # feasible point is still feasible (and vacuously optimal).
                values[block.gcols] = block.last_values
                block.last_obj = None
                block.last_opt = None
                continue
            pending.append((lid, block, local_obj))

        solutions = self._solve_blocks_sequential(
            pending, minimize, bound, regularization
        )

        for lid, block, local_obj in pending:
            solution = solutions[lid]
            values[block.gcols] = solution.values
            block.last_values = solution.values
            block.dirty = False
            if local_obj:
                # Evaluate the *base* objective at the returned vertex: on
                # the degraded cascade rungs the backend's reported value
                # includes the tie-breaking ridge on the certificate
                # multipliers, which is solver bookkeeping, not the stage
                # optimum the lexicographic pipeline records and pins.
                opt = sum(c * solution.values[j] for j, c in local_obj.items())
                total += opt
                block.last_obj = local_obj
                block.last_opt = opt
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
            self._cleanup_riders(values, minimize, bound, regularization)
            out_of_box = self._postsolve(values, bound)
            if out_of_box:
                raise _Invalidate(out_of_box)

        value = total + objective_const
        self.last_was_reduced = True
        self._last_minimize = minimize
        return LPSolution(values, value, status)

    def _solve_blocks_sequential(
        self,
        pending: "list[tuple[int, _LiveBlock, dict[int, float] | None]]",
        minimize: bool,
        bound: float,
        regularization: float,
    ) -> dict[int, LPSolution]:
        solutions: dict[int, LPSolution] = {}
        avoid_warm_hint = False
        deadline = current_deadline()
        for lid, block, local_obj in pending:
            if deadline is not None:
                # Between-block boundary: each block solve also caps itself
                # via the backend, but a long block chain must not overshoot
                # the budget by a whole block.
                deadline.check("lp.block")
            if avoid_warm_hint and hasattr(block.backend, "_avoid_warm"):
                # A sibling block just learned that warm re-solves lose to
                # presolved cold solves on this reduced core; blocks of one
                # system behave alike, so spare the others the lesson.
                block.backend._avoid_warm = True
            started = time.perf_counter()
            solutions[lid] = block.backend.solve(
                block.shim, local_obj, 0.0, minimize, bound, regularization
            )
            self.last_block_seconds.append((lid, time.perf_counter() - started))
            if getattr(block.backend, "_avoid_warm", False):
                avoid_warm_hint = True
        return solutions

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

    def _cleanup_riders(
        self,
        values: np.ndarray,
        minimize: bool,
        bound: float,
        regularization: float,
    ) -> None:
        """Move box-riding blocks to a small-certificate optimal vertex.

        For every block with a core variable near the ``±bound`` box, pin
        the block's just-proven optimum (within the solver's own feasibility
        tolerance — so the pinned face is exactly what the solver certified)
        and minimize a pull-inward objective over it: unit cost on every
        certificate multiplier plus a unit pull on each box-riding column,
        directed away from its box end.  The reported stage objective stays
        the first solve's exact optimum; only the *witness point* moves,
        toward the interior vertices that lift into the unreduced variable
        space.  Failures leave ``values`` as they were — the caller falls
        back to protection + recompute.
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
                    terms, const = _pin_row(
                        block.last_obj, block.last_opt, margin, minimize
                    )
                    backend.add_row(GE, terms, const)
                cleanup = backend.solve(
                    block.shim, cleanup_obj, 0.0, True, bound, regularization
                )
            except Exception:
                continue  # keep the original vertex; the caller re-checks
            finally:
                backend.rollback(checkpoint)
                block.dirty = True
            values[block.gcols] = cleanup.values
            block.last_values = cleanup.values


# ---------------------------------------------------------------------------
# Presolve + decomposition
# ---------------------------------------------------------------------------


def _nonneg_mask(problem: "LPProblem", n: int) -> np.ndarray:
    """Boolean nonnegativity mask over the variable pool.

    The Handelman emitter marks its λ-column spans at emission time
    (:meth:`LPProblem.note_cert_span`); when the spans cover every
    nonnegative variable — they do for derivation-produced systems, where
    ``fresh_nonneg`` is only called by certificate emission — the mask is
    filled span-by-span without scanning the Python-level index set.
    """
    mask = np.zeros(n, dtype=bool)
    spans = problem.cert_spans
    if spans and sum(count for _, count in spans) == len(problem.nonneg_indices):
        for start, count in spans:
            mask[start : start + count] = True
        return mask
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
    opt_fixed: set[int] = set()
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
                    # An optimality (not substitution) fix — recorded so a
                    # later objective or row on the column resurrects it.
                    fixed_of[col] = 0.0
                    opt_fixed.add(col)
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
    # Protected row-free columns become singleton blocks below — objectives,
    # pins, and cut rows address them like any core column (a protected
    # column classified as "zero" could never be resurrected: protection
    # only guards against *elimination rules*, and a row-free column has no
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
        opt_fixed=opt_fixed,
        fixed_cols=fixed_cols,
        fixed_vals=fixed_vals,
        elim=elim,
        elim_cols=elim_cols,
        zero_cols=zero_cols,
        col_block=col_block,
        blocks=blocks,
        stats=stats,
    )
