"""LP backends.

* :class:`IncrementalBackend` — COO triplet assembly into a persistent
  warm-started HiGHS model; lexicographic stage cuts are *appended*, not
  rebuilt (:mod:`repro.lp.backends.incremental`).  Every analysis derives
  onto it.
* :class:`ScipyDenseBackend` — affine-form rows, full matrix rebuild and a
  cold ``scipy.optimize`` LP call per solve
  (:mod:`repro.lp.backends.scipy_dense`).  It is the last rung of the
  incremental backend's robustness cascade and the parity reference that
  ``tests/test_backends.py`` constructs directly.  It is exported lazily
  (PEP 562), so importing this package never imports ``scipy.optimize``.

The incremental backend needs the HiGHS python bindings: the standalone
``highspy`` wheel, or the copy scipy >= 1.15 bundles, which
:mod:`repro.lp.backends.highs_core` loads by file path.  Without either,
importing this package raises :class:`ImportError`.
"""

from __future__ import annotations

from repro.lazy import lazy_exports
from repro.lp.backends.base import BackendStats, Checkpoint, LPBackend
from repro.lp.backends.incremental import IncrementalBackend

__all__ = [
    "BackendStats",
    "Checkpoint",
    "IncrementalBackend",
    "LPBackend",
    "ScipyDenseBackend",
]

__getattr__, __dir__ = lazy_exports(
    globals(), {"ScipyDenseBackend": "repro.lp.backends.scipy_dense"}
)
