"""Incremental LP backend: COO triplet assembly + a persistent HiGHS model.

Two ideas, both aimed at the lexicographic solve loop of the analysis
(section 3.4: minimize imprecision of the first moment, pin it, move to the
second moment, ...):

1. **Assembly.** Constraints are ingested straight into growing CSR-style
   buffers (``starts``/``cols``/``vals``) at emission time — no per-row
   affine-form dicts to re-walk at solve time.  The sparse matrix is built
   exactly once per model.

2. **Solving.** The HiGHS model object persists across ``solve`` calls.
   Between lexicographic stages only the new *cut rows* are appended
   (``addRows``) and the objective column costs are swapped
   (``changeColsCost``); HiGHS keeps its simplex basis, so stage ``k+1``
   re-optimizes from the stage-``k`` vertex in a handful of iterations
   instead of cold-starting the whole LP.

The bindings used are the standalone ``highspy`` wheel when installed, else
the copy scipy bundles for its own LP wrapper
(``scipy.optimize._highspy._core``, shipped since scipy 1.15), loaded by
file path so that ``scipy.optimize`` itself stays unimported
(:mod:`repro.lp.backends.highs_core`).  With neither, importing this module
raises :class:`ImportError`.  Every rung of the robustness cascade runs on
the one persistent model; the last runs HiGHS's interior-point method, and
when that fails too the solve raises :class:`~repro.lp.core.LPError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.deadline import AnalysisTimeout, current_deadline
from repro.lp.backends.base import EQ, GE, BackendStats, Checkpoint, rung_status
from repro.lp.backends.highs_core import scipy_highs_core
from repro.lp.core import LPError, LPInfeasibleError, LPSolution

if TYPE_CHECKING:  # pragma: no cover
    from repro.lp.problem import LPProblem

try:  # standalone highspy, if the environment has it
    import highspy as _hs  # type: ignore
except ImportError:  # the copy scipy bundles (scipy >= 1.15)
    _hs = scipy_highs_core()

#: Tie-breaking ridge of the cascade's second to fourth rungs: a tiny cost
#: per unit of every nonnegative column (the Handelman certificate
#: multipliers).  Certificates are massively non-unique, and the resulting
#: degenerate optimal faces are what occasionally drives HiGHS to give up;
#: preferring small certificates breaks the ties at negligible cost to the
#: optimum.  The ridge only steers the vertex: every rung reports the
#: objective evaluated at the vertex it returns.
_RIDGE = 1e-7


def _new_highs():
    h = (_hs.Highs if hasattr(_hs, "Highs") else _hs._Highs)()
    h.setOptionValue("output_flag", False)
    return h


class _RowBuffer:
    """Growing CSR triplets for one row kind."""

    __slots__ = ("starts", "cols", "vals", "rhs")

    def __init__(self) -> None:
        self.starts: list[int] = [0]
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.rhs: list[float] = []  # stored as -const: row ``terms·x == / >= rhs``

    def __len__(self) -> int:
        return len(self.rhs)

    def append(self, terms, const: float) -> int:
        cols = self.cols
        vals = self.vals
        if isinstance(terms, dict):
            # Bulk ingestion: one C-level pass per row instead of a Python
            # loop over entries.  ``keys()``/``values()`` iterate in the same
            # (insertion) order, so the triplet layout is unchanged.
            cols.extend(terms.keys())
            vals.extend(terms.values())
        else:
            for idx, coeff in terms:
                cols.append(idx)
                vals.append(coeff)
        self.starts.append(len(cols))
        self.rhs.append(-const)
        return len(self.rhs) - 1

    def truncate(self, nrows: int) -> None:
        nnz = self.starts[nrows]
        del self.starts[nrows + 1 :]
        del self.cols[nnz:]
        del self.vals[nnz:]
        del self.rhs[nrows:]

    def slice_arrays(self, lo: int, hi: int):
        """(starts, cols, vals, rhs) for rows ``lo..hi`` as numpy arrays."""
        base = self.starts[lo]
        starts = np.asarray(self.starts[lo:hi], dtype=np.int32) - base
        cols = np.asarray(self.cols[base : self.starts[hi]], dtype=np.int32)
        vals = np.asarray(self.vals[base : self.starts[hi]], dtype=np.float64)
        rhs = np.asarray(self.rhs[lo:hi], dtype=np.float64)
        return starts, cols, vals, rhs


class IncrementalBackend:
    """Row storage plus solving for one LP problem instance: triplet-buffer
    assembly with warm-started incremental HiGHS solves."""

    def __init__(self) -> None:
        self.stats = BackendStats()
        self._buffers = {EQ: _RowBuffer(), GE: _RowBuffer()}
        self._h = None
        self._model_rows = {EQ: 0, GE: 0}
        self._model_ncols = 0
        self._model_box = None
        # Warm-start policy.  Every stage re-solves warm from the previous
        # optimal basis, until a warm attempt fails (a status, never a
        # timing): from then on the model presolves every stage
        # (clearSolver before run).  So the path HiGHS takes, and the
        # optimal vertex it ends on, depend on the input alone.
        # ``_basis_valid`` tracks whether the HiGHS instance still holds a
        # usable basis (False after builds and clearSolver, True after an
        # optimal run).
        self._avoid_warm = False
        self._basis_valid = False
        # Whether the persistent model currently carries a finite HiGHS
        # ``time_limit`` (set from an armed deadline); cleared back to
        # infinity before the next un-deadlined solve.
        self._time_limited = False

    def __getstate__(self):
        """Serialization hook for the artifact cache: the native HiGHS
        handle cannot cross process/disk boundaries, so the pickle carries
        only the triplet buffers and the model is rebuilt lazily on the
        first solve after deserialization."""
        state = self.__dict__.copy()
        state.update(
            _h=None,
            _model_rows={EQ: 0, GE: 0},
            _model_ncols=0,
            _model_box=None,
            _avoid_warm=False,
            _basis_valid=False,
            _time_limited=False,
        )
        return state

    # -- row storage --------------------------------------------------------

    def add_row(self, kind: str, terms, const: float) -> int:
        """Append a row of ``kind`` and return its index within that kind.

        ``terms`` is either a ``{col: coeff}`` dict (the fast path, ingested
        without a Python-level loop) or an iterable of ``(col, coeff)``
        pairs.
        """
        return self._buffers[kind].append(terms, const)

    def num_rows(self, kind: str) -> int:
        return len(self._buffers[kind])

    def row_arrays(self, kind: str, lo: int = 0, hi: "int | None" = None):
        """Rows ``lo..hi`` of ``kind`` as CSR numpy arrays.

        Returns ``(starts, cols, vals, rhs)`` where ``starts`` has
        ``hi - lo + 1`` entries (zero-based, final terminator included) and
        ``rhs`` follows the row semantics ``terms·x == rhs`` (eq) /
        ``terms·x >= rhs`` (ge).  This is the export surface of the LP
        reduction layer (:mod:`repro.lp.reduce`): presolve and block
        decomposition read row storage through it.
        """
        buf = self._buffers[kind]
        if hi is None:
            hi = len(buf)
        starts, cols, vals, rhs = buf.slice_arrays(lo, hi)
        # slice_arrays serves HiGHS addRows, which wants no final
        # terminator; the CSR export contract includes it.
        return (
            np.append(starts, len(cols)).astype(np.int64),
            cols.astype(np.int64),
            vals,
            rhs,
        )

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(eq=len(self._buffers[EQ]), ge=len(self._buffers[GE]))

    def rollback(self, checkpoint: Checkpoint) -> None:
        """Drop every row appended after ``checkpoint``."""
        self._buffers[EQ].truncate(checkpoint.eq)
        self._buffers[GE].truncate(checkpoint.ge)
        if (
            self._model_rows[EQ] > checkpoint.eq
            or self._model_rows[GE] > checkpoint.ge
        ):
            # The persistent model contains dropped rows; rebuild lazily.
            self._h = None

    # -- model management ---------------------------------------------------

    def _col_bounds(self, problem: "LPProblem", n: int, box: float):
        lower = np.full(n, -box)
        upper = np.full(n, box)
        nonneg = np.fromiter(problem.nonneg_indices, dtype=np.int64, count=-1)
        if nonneg.size:
            lower[nonneg] = 0.0
        return lower, upper

    def _build_model(self, problem: "LPProblem", n: int, box: float) -> None:
        self.stats.model_builds += 1
        eq, ge = self._buffers[EQ], self._buffers[GE]
        neq, nge = len(eq), len(ge)
        lp = _hs.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = neq + nge
        lp.col_cost_ = np.zeros(n)
        lower, upper = self._col_bounds(problem, n, box)
        lp.col_lower_ = lower
        lp.col_upper_ = upper
        eq_rhs = np.asarray(eq.rhs, dtype=np.float64)
        ge_rhs = np.asarray(ge.rhs, dtype=np.float64)
        lp.row_lower_ = np.concatenate([eq_rhs, ge_rhs])
        lp.row_upper_ = np.concatenate([eq_rhs, np.full(nge, _hs.kHighsInf)])
        mat = _hs.HighsSparseMatrix()
        mat.format_ = _hs.MatrixFormat.kRowwise
        mat.num_col_ = n
        mat.num_row_ = neq + nge
        eq_nnz = eq.starts[-1]
        mat.start_ = np.concatenate(
            [
                np.asarray(eq.starts, dtype=np.int32),
                np.asarray(ge.starts[1:], dtype=np.int32) + eq_nnz,
            ]
        )
        mat.index_ = np.asarray(eq.cols + ge.cols, dtype=np.int32)
        mat.value_ = np.asarray(eq.vals + ge.vals, dtype=np.float64)
        lp.a_matrix_ = mat
        h = _new_highs()
        status = h.passModel(lp)
        if status == _hs.HighsStatus.kError:
            raise LPError("HiGHS rejected the model")
        self._h = h
        self._model_rows = {EQ: neq, GE: nge}
        self._model_ncols = n
        self._model_box = box
        self._avoid_warm = False
        self._basis_valid = False
        self._time_limited = False

    def _append_new_rows(self, kind: str) -> None:
        buf = self._buffers[kind]
        have = self._model_rows[kind]
        want = len(buf)
        if want == have:
            return
        starts, cols, vals, rhs = buf.slice_arrays(have, want)
        if kind == EQ:
            lower, upper = rhs, rhs
        else:
            lower, upper = rhs, np.full(len(rhs), _hs.kHighsInf)
        status = self._h.addRows(
            want - have, lower, upper, len(cols), starts, cols, vals
        )
        if status == _hs.HighsStatus.kError:
            raise LPError("HiGHS rejected appended rows")
        self.stats.rows_appended += want - have
        self._model_rows[kind] = want

    def _ensure_model(self, problem: "LPProblem", n: int, box: float) -> None:
        if self._h is None or self._model_ncols != n:
            self._build_model(problem, n, box)
            return
        if box != self._model_box:
            lower, upper = self._col_bounds(problem, n, box)
            self._h.changeColsBounds(
                n, np.arange(n, dtype=np.int32), lower, upper
            )
            self._model_box = box
        self._append_new_rows(EQ)
        self._append_new_rows(GE)

    # -- solving ------------------------------------------------------------

    def solve(
        self,
        problem: "LPProblem",
        objective: "dict[int, float] | None",
        objective_const: float,
        bound: float,
    ) -> LPSolution:
        """Minimize ``objective·x + objective_const`` over the stored rows,
        every column boxed at ``±bound`` (nonnegative columns at
        ``[0, bound]``), down the robustness cascade.

        Returns the values and the objective evaluated at them, with the
        status of the rung that answered
        (:func:`~repro.lp.backends.base.rung_status`).  Raises
        :class:`LPInfeasibleError` when HiGHS proves the problem infeasible
        at the requested box, :class:`LPError` when every rung fails, and
        :class:`AnalysisTimeout` when an armed deadline expires.
        """
        self.stats.solves += 1
        n = len(problem.pool)
        if n == 0:
            return LPSolution(np.zeros(0), 0.0, "optimal")

        base_cost = np.zeros(n)
        if objective is not None:
            for idx, coeff in objective.items():
                base_cost[idx] = coeff
        nonneg_list = None

        # The robustness cascade, all on the persistent model.  Warm starts
        # already remove most of the degenerate-face "unknown" outcomes; the
        # later rungs break ties toward small certificates (a ridge on the
        # multipliers), tighten the variable box, and last run HiGHS's
        # interior-point method, which certifies degenerate faces on which
        # every simplex rung reports "unknown".
        attempts = [
            (0.0, bound, "choose"),
            (_RIDGE, bound, "choose"),
            (_RIDGE, min(bound, 1e9), "choose"),
            (100 * _RIDGE, min(bound, 1e8), "choose"),
            (0.0, bound, "ipm"),
        ]
        deadline = current_deadline()
        for reg, box, solver in attempts:
            if deadline is not None:
                deadline.check("lp.solve")
            self._ensure_model(problem, n, box)
            cost = base_cost
            if reg and objective is not None:
                if nonneg_list is None:
                    nonneg_list = np.fromiter(
                        problem.nonneg_indices, dtype=np.int64, count=-1
                    )
                cost = base_cost.copy()
                if nonneg_list.size:
                    cost[nonneg_list] += reg
            h = self._h
            h.changeColsCost(n, np.arange(n, dtype=np.int32), cost)
            if deadline is not None:
                # Budget cap inside HiGHS itself: a wedged simplex returns
                # kTimeLimit instead of running forever.
                h.setOptionValue(
                    "time_limit", max(deadline.remaining(), 1e-3)
                )
                self._time_limited = True
            elif self._time_limited:
                h.setOptionValue("time_limit", _hs.kHighsInf)
                self._time_limited = False
            warm = self._basis_valid
            if warm and self._avoid_warm:
                h.clearSolver()  # discard the basis; presolve runs again
                self._basis_valid = False
                warm = False
            if solver != "choose":
                h.setOptionValue("solver", solver)
            h.run()
            if solver != "choose":
                h.setOptionValue("solver", "choose")  # later stages: simplex
            status = h.getModelStatus()
            if (
                deadline is not None
                and status == _hs.HighsModelStatus.kTimeLimit
            ):
                # The interrupted model holds a partial basis; start cold
                # if anything solves after the timeout is handled.
                self._h = None
                raise AnalysisTimeout(
                    "lp.solve", deadline.elapsed(), deadline.timings
                )
            if status == _hs.HighsModelStatus.kOptimal:
                self._basis_valid = True
                values = np.asarray(h.getSolution().col_value)
                # The objective at the vertex: HiGHS's own objective value
                # includes the ridge.
                value = objective_const + sum(
                    c * values[j] for j, c in (objective or {}).items()
                )
                return LPSolution(values, float(value), rung_status(reg, box, bound))
            if status == _hs.HighsModelStatus.kInfeasible and box == bound:
                raise LPInfeasibleError(
                    "LP infeasible: no potential annotation of this shape exists "
                    "(try a higher polynomial degree or stronger invariants)",
                    diagnostics=problem.infeasibility_diagnostics(),
                )
            # Any other status (unknown, unbounded-or-infeasible under a
            # tighter box, numerical trouble): drop the stale basis and move
            # to the next rung of the cascade.  A *warm* attempt failing is
            # the strongest evidence this model dislikes warm starts — stop
            # paying for them on later stages.
            if warm:
                self._avoid_warm = True
            h.clearSolver()
            self._basis_valid = False
        self._h = None  # cold model for whatever solves next
        raise LPError(
            f"LP solver failed on all {len(attempts)} cascade rungs (plain; "
            "ridge; ridge, box 1e9; 100x ridge, box 1e8; interior point); "
            f"last HiGHS model status: {status.name}"
        )
