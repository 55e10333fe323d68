"""The dense solving path: rebuild CSR matrices and cold-start HiGHS.

It goes through ``scipy.optimize.linprog``, reassembling the full
constraint matrices from the stored rows on every ``solve`` call.  Simple
and battle-tested, it is the last rung of the incremental backend's
robustness cascade and the parity baseline the tests compare the
incremental backend against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.deadline import AnalysisTimeout, current_deadline
from repro.lp.backends.base import EQ, GE, Checkpoint, LPBackend, rung_status
from repro.lp.core import LPError, LPInfeasibleError, LPSolution

if TYPE_CHECKING:  # pragma: no cover
    from repro.lp.problem import LPProblem


class ScipyDenseBackend(LPBackend):
    """Affine-form row lists, full matrix rebuild per solve."""

    def __init__(self) -> None:
        super().__init__()
        self._rows: dict[str, list[tuple[dict[int, float], float]]] = {EQ: [], GE: []}

    # -- row storage --------------------------------------------------------

    def add_row(self, kind: str, terms, const: float) -> int:
        rows = self._rows[kind]
        # ``dict`` copies a {col: coeff} dict and consumes (col, coeff)
        # pairs alike — both shapes of the base-class contract.
        rows.append((dict(terms), const))
        return len(rows) - 1

    def num_rows(self, kind: str) -> int:
        return len(self._rows[kind])

    def row_arrays(self, kind: str, lo: int = 0, hi: "int | None" = None):
        rows = self._rows[kind]
        if hi is None:
            hi = len(rows)
        window = rows[lo:hi]
        starts = np.zeros(len(window) + 1, dtype=np.int64)
        np.cumsum([len(terms) for terms, _ in window], out=starts[1:])
        cols = np.fromiter(
            (c for terms, _ in window for c in terms),
            dtype=np.int64,
            count=int(starts[-1]),
        )
        vals = np.fromiter(
            (v for terms, _ in window for v in terms.values()),
            dtype=np.float64,
            count=int(starts[-1]),
        )
        rhs = np.asarray([-const for _, const in window], dtype=np.float64)
        return starts, cols, vals, rhs

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(eq=len(self._rows[EQ]), ge=len(self._rows[GE]))

    def rollback(self, checkpoint: Checkpoint) -> None:
        del self._rows[EQ][checkpoint.eq :]
        del self._rows[GE][checkpoint.ge :]

    # -- solving ------------------------------------------------------------

    def _matrix(
        self, rows: list[tuple[dict[int, float], float]], num_cols: int
    ) -> tuple[sparse.csr_matrix, np.ndarray]:
        data: list[float] = []
        row_idx: list[int] = []
        col_idx: list[int] = []
        rhs = np.zeros(len(rows))
        for r, (terms, const) in enumerate(rows):
            rhs[r] = -const
            for idx, coeff in terms.items():
                row_idx.append(r)
                col_idx.append(idx)
                data.append(coeff)
        mat = sparse.csr_matrix(
            (data, (row_idx, col_idx)), shape=(len(rows), num_cols)
        )
        return mat, rhs

    def solve(
        self,
        problem: "LPProblem",
        objective: "dict[int, float] | None",
        objective_const: float,
        minimize: bool,
        bound: float,
        regularization: float,
    ) -> LPSolution:
        self.stats.solves += 1
        n = len(problem.pool)
        if n == 0:
            return LPSolution(np.zeros(0), 0.0, "optimal")

        base_cost = np.zeros(n)
        if objective is not None:
            for idx, coeff in objective.items():
                base_cost[idx] = coeff if minimize else -coeff

        eq_rows = self._rows[EQ]
        ge_rows = self._rows[GE]
        self.stats.model_builds += 1
        a_eq, b_eq = self._matrix(eq_rows, n)
        kwargs = {}
        if ge_rows:
            a_ge, b_ge = self._matrix(ge_rows, n)
            kwargs["A_ub"] = -a_ge
            kwargs["b_ub"] = -b_ge

        nonneg = problem.nonneg_indices
        # HiGHS occasionally reports "unknown" on the massively degenerate
        # optimal faces these certificate systems have.  The cascade tries:
        # the plain problem with each HiGHS variant, then a tiny ridge on
        # the certificate multipliers (ties broken toward small
        # certificates), then tighter variable boxes.
        attempts = [
            (0.0, bound, "highs"),
            (0.0, bound, "highs-ds"),
            (regularization, bound, "highs"),
            (regularization, min(bound, 1e9), "highs"),
            (100 * regularization, min(bound, 1e8), "highs"),
            (0.0, bound, "highs-ipm"),
        ]
        deadline = current_deadline()
        result = None
        for reg, box, method in attempts:
            solver_options = None
            if deadline is not None:
                # Budget cap: expiry between attempts raises, and each
                # linprog call is capped at the remaining wall-clock.
                deadline.check("lp.solve")
                solver_options = {"time_limit": max(deadline.remaining(), 1e-3)}
            cost = base_cost.copy()
            if reg and objective is not None:
                for idx in nonneg:
                    cost[idx] += reg
            bounds = [
                (0.0, box) if i in nonneg else (-box, box) for i in range(n)
            ]
            result = linprog(
                cost,
                A_eq=a_eq if eq_rows else None,
                b_eq=b_eq if eq_rows else None,
                bounds=bounds,
                method=method,
                options=solver_options,
                **kwargs,
            )
            if result.status == 2 and box == bound:
                raise LPInfeasibleError(
                    "LP infeasible: no potential annotation of this shape exists "
                    "(try a higher polynomial degree or stronger invariants)",
                    diagnostics=problem.infeasibility_diagnostics(),
                )
            if result.success:
                break
        if not result.success:
            if deadline is not None and deadline.expired():
                raise AnalysisTimeout(
                    "lp.solve", deadline.elapsed(), deadline.timings
                )
            raise LPError(f"LP solver failed: {result.message}")
        value = float(result.fun) + (objective_const if minimize else -objective_const)
        if not minimize:
            value = -value
        return LPSolution(np.asarray(result.x), value, rung_status(reg, box, bound))
