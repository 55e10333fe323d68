"""Result types for the moment analysis."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.annotations import MomentAnnotation, PolyInterval
from repro.lp.affine import AffForm
from repro.poly.polynomial import Polynomial, format_polynomial
from repro.rings.interval import Interval
from repro.rings.moment import raw_to_central, variance_interval


def resolve_polynomial(poly: Polynomial, values) -> Polynomial:
    """Substitute an LP solution into a template polynomial."""

    def resolve_coeff(c):
        if isinstance(c, AffForm):
            return c.evaluate(values)
        return c

    resolved = poly.map_coefficients(resolve_coeff)
    # Drop numeric noise from the LP solution.
    cleaned = {
        mono: (0.0 if abs(c) < 1e-9 else float(round(c, 9)))
        for mono, c in resolved.coeffs.items()
    }
    return Polynomial(cleaned)


def resolve_annotation(ann: MomentAnnotation, values) -> MomentAnnotation:
    return MomentAnnotation(
        [
            PolyInterval(
                resolve_polynomial(iv.lo, values), resolve_polynomial(iv.hi, values)
            )
            for iv in ann.intervals
        ]
    )


@dataclass
class FunctionBound:
    """Resolved spec annotations of one function, per restriction level."""

    name: str
    pres: list[MomentAnnotation]
    posts: list[MomentAnnotation]


@dataclass
class MomentBoundResult:
    """Interval bounds on the raw moments of the main cost accumulator.

    ``raw.intervals[k]`` brackets ``E[C^k]`` symbolically in the program
    variables *at program entry* (all variables are zero at the start of
    execution unless the objective valuation says otherwise — the symbolic
    form is valid for every initial valuation satisfying the declared
    pre-condition of main, Theorem 4.4).
    """

    raw: MomentAnnotation
    functions: dict[str, FunctionBound] = field(default_factory=dict)
    valuations: list[dict[str, float]] = field(default_factory=list)
    objective_values: list[float] = field(default_factory=list)
    #: Per-stage solver cascade rung ("optimal", "optimal:regularized",
    #: "optimal:boxed", "constant") and objective normalization factor —
    #: see :class:`repro.analysis.pipeline.StageSolution`.
    solver_statuses: list[str] = field(default_factory=list)
    objective_scales: list[float] = field(default_factory=list)
    #: Per-stage lexicographic cut margins, in the stage objective's units:
    #: ``objective_values[k]`` is the un-padded stage optimum, and stages
    #: after ``k`` were held within ``tolerances[k]`` of it (0.0 for the
    #: final stage, which pins nothing).
    stage_tolerances: list[float] = field(default_factory=list)
    #: LP reduction layer stats (columns eliminated, rows deduped, component
    #: sizes, ...) when the solve went through :mod:`repro.lp.reduce`.
    lp_reduction: dict | None = None
    #: Tighter template-coefficient box the solve succeeded under after a
    #: template restart (``None`` for the normal no-restart path); bounds
    #: are then taken over the certificate family restricted to that box —
    #: still sound, possibly conservative.
    lp_restart_bound: float | None = None
    warnings: list[str] = field(default_factory=list)
    lp_variables: int = 0
    lp_constraints: int = 0
    solve_seconds: float = 0.0
    soundness: "object | None" = None
    #: Graceful-degradation provenance: ``None`` for a full-fidelity result;
    #: otherwise ``{"requested_degree", "degree", "cause", "error"}`` — the
    #: analysis fell back to ``degree`` moments after the requested degree
    #: timed out or failed.  Only emitted in :meth:`to_dict` when set, so
    #: un-degraded results stay byte-identical to pre-degradation output.
    degraded: dict | None = None

    # -- numeric queries -----------------------------------------------------------

    def _valuation(self, valuation: dict[str, float] | None) -> dict[str, float]:
        if valuation is not None:
            return valuation
        if self.valuations:
            return self.valuations[0]
        return {}

    def raw_interval(self, k: int, valuation: dict[str, float] | None = None) -> Interval:
        """Numeric interval for ``E[C^k]`` at a concrete initial valuation."""
        return self.raw.intervals[k].evaluate(self._valuation(valuation))

    def raw_intervals(self, valuation: dict[str, float] | None = None) -> list[Interval]:
        return [self.raw_interval(k, valuation) for k in range(self.raw.degree + 1)]

    def central_interval(
        self, k: int, valuation: dict[str, float] | None = None
    ) -> Interval:
        """Interval bound on the k-th central moment ``E[(C - E[C])^k]``."""
        raws = self.raw_intervals(valuation)
        if k == 2:
            return variance_interval(raws)
        return raw_to_central(raws, k)

    def variance(self, valuation: dict[str, float] | None = None) -> Interval:
        return self.central_interval(2, valuation)

    def skewness_upper(self, valuation: dict[str, float] | None = None) -> float:
        """Upper estimate of skewness from the moment intervals."""
        c3 = self.central_interval(3, valuation)
        var = self.variance(valuation)
        if var.lo <= 0:
            return float("inf")
        return c3.hi / var.lo**1.5

    def kurtosis_upper(self, valuation: dict[str, float] | None = None) -> float:
        c4 = self.central_interval(4, valuation)
        var = self.variance(valuation)
        if var.lo <= 0:
            return float("inf")
        return c4.hi / var.lo**2

    # -- symbolic queries ------------------------------------------------------------

    def upper_poly(self, k: int) -> Polynomial:
        return self.raw.intervals[k].hi

    def lower_poly(self, k: int) -> Polynomial:
        return self.raw.intervals[k].lo

    def upper_str(self, k: int) -> str:
        return format_polynomial(self.upper_poly(k), precision=4)

    def lower_str(self, k: int) -> str:
        return format_polynomial(self.lower_poly(k), precision=4)

    def to_dict(self) -> dict:
        """JSON-ready view of the result (used by ``repro serve``).

        Symbolic bounds are rendered with the same formatter as
        :meth:`summary`, numeric intervals as ``[lo, hi]`` pairs at the
        first objective valuation.
        """
        evaluated = {}
        for k in range(1, self.raw.degree + 1):
            interval = self.raw_interval(k)
            evaluated[f"E[C^{k}]"] = [interval.lo, interval.hi]
        if self.raw.degree >= 2:
            var = self.variance()
            evaluated["V[C]"] = [var.lo, var.hi]
        out = {
            "moments": self.raw.degree,
            "raw_bounds": {
                str(k): {"lower": self.lower_str(k), "upper": self.upper_str(k)}
                for k in range(1, self.raw.degree + 1)
            },
            "evaluated": evaluated,
            "valuations": self.valuations,
            "objective_values": self.objective_values,
            "solver_statuses": self.solver_statuses,
            "objective_scales": self.objective_scales,
            "stage_tolerances": self.stage_tolerances,
            "lp_reduction": self.lp_reduction,
            "lp_restart_bound": self.lp_restart_bound,
            "warnings": self.warnings,
            "lp_variables": self.lp_variables,
            "lp_constraints": self.lp_constraints,
            "solve_seconds": self.solve_seconds,
        }
        if self.degraded is not None:
            out["degraded"] = self.degraded
        return out

    def summary(self) -> str:
        lines = [
            f"moment bounds ({self.raw.degree} moments, "
            f"{self.lp_variables} LP vars, {self.lp_constraints} constraints, "
            f"{self.solve_seconds:.3f}s)"
        ]
        if self.degraded is not None:
            lines.append(
                f"  DEGRADED: {self.degraded['degree']} of "
                f"{self.degraded['requested_degree']} requested moments "
                f"({self.degraded['cause']})"
            )
        if self.lp_reduction:
            red = self.lp_reduction
            lines.append(
                f"  lp reduce: {red['cols']}->{red['reduced_cols']} cols, "
                f"{red['rows']}->{red['reduced_rows']} rows, "
                f"{red['components']} block"
                + ("s" if red["components"] != 1 else "")
            )
        if any(self.stage_tolerances):
            margins = ", ".join(f"{t:.3g}" for t in self.stage_tolerances)
            lines.append(f"  lex cut margins: [{margins}]")
        if self.lp_restart_bound is not None:
            lines.append(
                f"  template restart: solved under the ±{self.lp_restart_bound:g} "
                "coefficient box (degenerate template at the requested bound)"
            )
        for k in range(1, self.raw.degree + 1):
            lines.append(f"  E[C^{k}] in [{self.lower_str(k)}, {self.upper_str(k)}]")
        if self.valuations:
            val = self.valuations[0]
            pretty = ", ".join(f"{v}={x:g}" for v, x in sorted(val.items()))
            lines.append(f"  at {{{pretty}}}:")
            for k in range(1, self.raw.degree + 1):
                lines.append(f"    E[C^{k}] in {self.raw_interval(k)!r}")
            if self.raw.degree >= 2:
                lines.append(f"    V[C]    in {self.variance()!r}")
        return "\n".join(lines)
