"""LP reference paths and scripted HiGHS outcomes, reached by patching in scope.

The analyzer always derives onto :class:`IncrementalBackend` and always
solves through the reduction layer; no option selects anything else.
Parity tests reach the references by patching:

* :func:`cold_models` — every backend solve inside builds and presolves a
  fresh HiGHS model instead of re-optimizing the persistent one;
* :func:`direct_solves` — every :meth:`LPProblem.solve` inside bypasses the
  reduction layer (``reduce=False``).

Cache keys do not name the path, so each run needs a fresh pipeline.
:func:`scripted_statuses` makes the robustness cascade's rungs fail on
demand; :func:`last_rung_lp` is the small LP its tests solve.
"""

from functools import partialmethod
from unittest import mock

from repro.lp.affine import AffForm
from repro.lp.backends import IncrementalBackend, incremental
from repro.lp.problem import LPProblem


def cold_models():
    solve = IncrementalBackend.solve

    def cold(self, *args, **kwargs):
        self._h = None  # the next _ensure_model builds a fresh model
        return solve(self, *args, **kwargs)

    return mock.patch.object(IncrementalBackend, "solve", cold)


def direct_solves():
    return mock.patch.object(
        LPProblem, "solve", partialmethod(LPProblem.solve, reduce=False)
    )


def scripted_statuses(statuses: dict[str, str], runs: "int | None" = None):
    """Every HiGHS model built inside reports ``statuses[solver]`` (a
    ``HighsModelStatus`` name) after a run under that ``solver`` option:
    ``"choose"`` on the simplex rungs, ``"ipm"`` on the last one.  Runs
    under a solver not in ``statuses``, and with ``runs`` set every run of
    a model after its first ``runs``, report their real status."""
    new_highs = incremental._new_highs
    model_status = incremental._hs.HighsModelStatus

    class Scripted:
        def __init__(self):
            self._highs = new_highs()
            self._solver = self._ran = "choose"
            self._runs = 0

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def setOptionValue(self, name, value):
            if name == "solver":
                self._solver = value
            return self._highs.setOptionValue(name, value)

        def run(self):
            self._ran = self._solver
            self._runs += 1
            return self._highs.run()

        def getModelStatus(self):
            if self._ran in statuses and (runs is None or self._runs <= runs):
                return getattr(model_status, statuses[self._ran])
            return self._highs.getModelStatus()

    return mock.patch.object(incremental, "_new_highs", Scripted)


def last_rung_lp():
    """``min x + y + λ`` s.t. ``x + y >= 3``, ``x - y == 1``, ``λ >= x``,
    ``λ >= 0``: optimum 5 at x=2, y=1, λ=2."""
    lp = LPProblem()
    x, y = AffForm.of_var(lp.fresh("x")), AffForm.of_var(lp.fresh("y"))
    lam = AffForm.of_var(lp.fresh_nonneg("lam"))
    lp.add_ge(x + y - 3.0)
    lp.add_eq(x - y - 1.0)
    lp.add_ge(lam - x)
    return lp, x + y + lam
