"""Shared LP types: errors and solutions.

Kept separate from :mod:`repro.lp.problem` so the backend implementations
(:mod:`repro.lp.backends`) can use them without a circular import — the
problem module imports the backends, not vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.lp.affine import LinVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class LPError(Exception):
    pass


class LPInfeasibleError(LPError):
    """No potential annotation of the requested shape exists.

    Raising the template degree, adding loop invariants / pre-conditions, or
    lowering the target moment degree are the standard remedies.

    ``diagnostics`` (when present) names the constraint groups involved in
    the system, derived from the ``note`` annotations attached at emission.
    """

    def __init__(self, message: str, diagnostics: str = ""):
        super().__init__(message + (f"\n{diagnostics}" if diagnostics else ""))
        self.diagnostics = diagnostics


@dataclass
class LPSolution:
    values: np.ndarray
    objective: float
    status: str

    def value_of(self, var: LinVar) -> float:
        return float(self.values[var.index])

    def assignment(self) -> np.ndarray:
        return self.values


__all__ = ["LPError", "LPInfeasibleError", "LPSolution"]
