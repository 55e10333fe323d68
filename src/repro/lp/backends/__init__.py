"""The LP backend.

:class:`IncrementalBackend` — COO triplet assembly into a persistent
warm-started HiGHS model; lexicographic stage cuts are *appended*, not
rebuilt (:mod:`repro.lp.backends.incremental`).  Every analysis derives
onto it, and its robustness cascade ends in HiGHS's interior-point method
on the same model.  No path imports ``scipy.optimize``.

The backend needs the HiGHS python bindings: the standalone ``highspy``
wheel, or the copy scipy >= 1.15 bundles, which
:mod:`repro.lp.backends.highs_core` loads by file path.  Without either,
importing this package raises :class:`ImportError`.
"""

from __future__ import annotations

from repro.lp.backends.base import BackendStats, Checkpoint
from repro.lp.backends.incremental import IncrementalBackend

__all__ = ["BackendStats", "Checkpoint", "IncrementalBackend"]
