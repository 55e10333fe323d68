"""Pluggable LP backends.

``get_backend(name)`` instantiates a registered backend:

* ``"incremental"`` (default) — COO triplet assembly into a persistent
  warm-started HiGHS model; lexicographic stage cuts are *appended*, not
  rebuilt (:mod:`repro.lp.backends.incremental`).
* ``"dense"`` — the legacy path: affine-form rows, full matrix rebuild and a
  cold ``scipy.optimize.linprog`` call per solve
  (:mod:`repro.lp.backends.scipy_dense`).

If the running scipy does not bundle the HiGHS python bindings the
``incremental`` name resolves to the dense implementation, so the default
always works.
"""

from __future__ import annotations

from repro.lp.backends.base import (
    DEFAULT_BACKEND,
    BackendStats,
    Checkpoint,
    LPBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.lp.backends.incremental import IncrementalBackend, highs_available
from repro.lp.backends.scipy_dense import ScipyDenseBackend

register_backend("dense", ScipyDenseBackend)
if highs_available():
    register_backend("incremental", IncrementalBackend)
else:  # pragma: no cover - scipy without bundled highspy
    register_backend("incremental", ScipyDenseBackend)

__all__ = [
    "DEFAULT_BACKEND",
    "BackendStats",
    "Checkpoint",
    "IncrementalBackend",
    "LPBackend",
    "ScipyDenseBackend",
    "available_backends",
    "get_backend",
    "highs_available",
    "register_backend",
]
