"""Backend interface for LP assembly and solving.

An :class:`LPBackend` owns the *row storage* of one :class:`~repro.lp.problem.
LPProblem` and knows how to solve the accumulated system.  Splitting storage
from the problem façade lets each backend pick the representation its solver
wants: growing COO triplet buffers feeding a persistent warm-started HiGHS
model (:class:`IncrementalBackend`, the analyzer's only backend) or
affine-form rows rebuilt per solve (:class:`ScipyDenseBackend`, the last
rung of the incremental backend's robustness cascade and the parity
reference of ``tests/test_backends.py``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.lp.core import LPSolution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lp.problem import LPProblem

#: Row kinds.  ``eq`` rows require ``terms·x + const == 0``; ``ge`` rows
#: require ``terms·x + const >= 0``.
EQ = "eq"
GE = "ge"


@dataclass
class BackendStats:
    """Assembly/solve counters, mostly for tests and benchmarks.

    ``model_builds`` counts full matrix/model constructions; with the
    incremental backend a lexicographic solve sequence should show exactly
    one build plus ``rows_appended`` cut rows, while the dense backend
    rebuilds per stage.
    """

    model_builds: int = 0
    rows_appended: int = 0
    solves: int = 0
    fallbacks: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "model_builds": self.model_builds,
            "rows_appended": self.rows_appended,
            "solves": self.solves,
            "fallbacks": self.fallbacks,
        }


def rung_status(reg: float, box: float, bound: float) -> str:
    """Which rung of the robustness cascade produced the solution.

    ``"optimal"`` means the plain problem was solved; the degraded rungs
    (tie-breaking regularization, tighter variable boxes) are still sound
    upper bounds on the imprecision but may be slightly conservative —
    callers comparing backends should not expect exact agreement there.
    """
    if box != bound:
        return "optimal:boxed"
    if reg:
        return "optimal:regularized"
    return "optimal"


@dataclass(frozen=True)
class Checkpoint:
    """Row counts at a point in time; rows past these are removable."""

    eq: int
    ge: int


class LPBackend(abc.ABC):
    """Row storage plus solving for one LP problem instance."""

    def __init__(self) -> None:
        self.stats = BackendStats()

    # -- row storage --------------------------------------------------------

    @abc.abstractmethod
    def add_row(self, kind: str, terms, const: float) -> int:
        """Append a row of ``kind`` and return its index within that kind.

        ``terms`` is either a ``{col: coeff}`` dict (the fast path — backends
        may bulk-ingest keys/values without a Python-level loop) or an
        iterable of ``(col, coeff)`` pairs.
        """

    @abc.abstractmethod
    def num_rows(self, kind: str) -> int:
        ...

    @abc.abstractmethod
    def row_arrays(self, kind: str, lo: int = 0, hi: "int | None" = None):
        """Rows ``lo..hi`` of ``kind`` as CSR numpy arrays.

        Returns ``(starts, cols, vals, rhs)`` where ``starts`` has
        ``hi - lo + 1`` entries (zero-based, final terminator included) and
        ``rhs`` follows the row semantics ``terms·x == rhs`` (eq) /
        ``terms·x >= rhs`` (ge).  This is the export surface of the LP
        reduction layer (:mod:`repro.lp.reduce`): presolve and block
        decomposition read row storage through it without caring which
        backend owns the rows.
        """

    @abc.abstractmethod
    def checkpoint(self) -> Checkpoint:
        ...

    @abc.abstractmethod
    def rollback(self, checkpoint: Checkpoint) -> None:
        """Drop every row appended after ``checkpoint``."""

    # -- solving ------------------------------------------------------------

    @abc.abstractmethod
    def solve(
        self,
        problem: "LPProblem",
        objective: "dict[int, float] | None",
        objective_const: float,
        minimize: bool,
        bound: float,
        regularization: float,
    ) -> LPSolution:
        """Solve the accumulated system, optimizing the objective terms."""

