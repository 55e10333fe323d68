"""The two LP reference paths, reached by patching in scope.

The analyzer always derives onto :class:`IncrementalBackend` and always
solves through the reduction layer; no option selects anything else.
Parity tests reach the references by patching:

* :func:`dense_backend` — pipelines built inside derive onto
  :class:`ScipyDenseBackend` (full matrix rebuild and a cold
  ``scipy.optimize.linprog`` call per solve);
* :func:`direct_solves` — every :meth:`LPProblem.solve` inside bypasses the
  reduction layer (``reduce=False``).

Cache keys do not name the path, so each run needs a fresh pipeline.
"""

from functools import partialmethod
from unittest import mock

import repro.analysis.pipeline as pipeline
from repro.lp.backends import ScipyDenseBackend
from repro.lp.problem import LPProblem


def dense_backend():
    return mock.patch.object(pipeline, "IncrementalBackend", ScipyDenseBackend)


def direct_solves():
    return mock.patch.object(
        LPProblem, "solve", partialmethod(LPProblem.solve, reduce=False)
    )
