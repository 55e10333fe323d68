"""Row kinds, checkpoints, counters and cascade statuses of the LP backend.

:class:`~repro.lp.backends.incremental.IncrementalBackend` owns the *row
storage* of one :class:`~repro.lp.problem.LPProblem` — growing COO triplet
buffers feeding a persistent warm-started HiGHS model — and solves the
accumulated system.  This module holds the small types it shares with the
problem façade and the reduction layer.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Row kinds.  ``eq`` rows require ``terms·x + const == 0``; ``ge`` rows
#: require ``terms·x + const >= 0``.
EQ = "eq"
GE = "ge"


@dataclass
class BackendStats:
    """Assembly/solve counters, mostly for tests and benchmarks.

    ``model_builds`` counts full matrix/model constructions; a
    lexicographic solve sequence should show exactly one build plus
    ``rows_appended`` cut rows.
    """

    model_builds: int = 0
    rows_appended: int = 0
    solves: int = 0


def rung_status(reg: float, box: float, bound: float) -> str:
    """Which rung of the robustness cascade produced the solution.

    ``"optimal"`` means the plain problem was solved, by simplex or by the
    interior-point last rung; the degraded rungs (tie-breaking
    regularization, tighter variable boxes) are still sound upper bounds on
    the imprecision but may be slightly conservative — callers comparing
    solve paths should not expect exact agreement there.
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
