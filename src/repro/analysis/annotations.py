"""Symbolic interval moment annotations: elements of ``M_PI^(m)``.

A :class:`MomentAnnotation` is the derivation system's potential annotation
``Q = <[L_0, U_0], ..., [L_m, U_m]>`` (section 3.3): a vector of intervals
whose ends are polynomials over program variables.  During constraint
generation the polynomial coefficients are affine forms over LP unknowns;
after solving they are plain floats.

The operations implemented are exactly the ones the inference rules need,
and all of them keep templates affine in the LP unknowns:

* ``oplus``            — the ⊕ of the moment semiring (pointwise interval sum)
* ``prefix_cost``      — ``<[c^k, c^k]> ⊗ Q`` for a known constant cost ``c``
                         (rule Q-Tick); interval ends swap under negative
                         scalars, handled exactly since ``c`` is concrete
* ``scale``            — product with ``<[p,p],[0,0],...>`` (rule Q-Prob)
* ``substitute``       — rule Q-Assign
* ``expect``           — rule Q-Sample

Derivation calls the fused forms ``oplus_all`` and ``prob_mix`` instead of
chaining ``oplus`` and ``scale``; each fused form is bit-identical (same
floats, same key order) to the chain it replaces, which
``tests/test_poly_kernel.py`` keeps as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.lang.ast import Distribution
from repro.lp.affine import AffForm
from repro.poly.kernel import ExpectationPlan, TermAccumulator, substitution_plan
from repro.poly.monomial import monomials_up_to_degree
from repro.poly.polynomial import Polynomial
from repro.rings.interval import Interval
from repro.rings.moment import binomial

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lp.problem import LPProblem


def _accumulate_interval(sources) -> "PolyInterval":
    """Fused ``Σ scalar·iv`` over ``(PolyInterval, scalar)`` pairs.

    The single home of the accumulation loop shared by ``prefix_cost``,
    ``prob_mix`` and ``oplus_all``: zero scalars contribute nothing (like
    ``Polynomial.scale(0)``), interval ends swap under negative scalars
    (like ``PolyInterval.scale``), and contributions stream through
    :class:`~repro.poly.kernel.TermAccumulator` in source order — the exact
    ``_add_term`` sequence of the chained ``PolyInterval.scale`` / ``+``
    form, so results are bit-identical to it.
    """
    lo_acc, hi_acc = TermAccumulator(), TermAccumulator()
    for iv, scalar in sources:
        if scalar == 0:
            continue
        lo_src, hi_src = (iv.lo, iv.hi) if scalar >= 0 else (iv.hi, iv.lo)
        for mono, c in lo_src.coeffs.items():
            lo_acc.add(mono, c, scalar)
        for mono, c in hi_src.coeffs.items():
            hi_acc.add(mono, c, scalar)
    return PolyInterval(lo_acc.to_polynomial(), hi_acc.to_polynomial())


@dataclass
class PolyInterval:
    """The interval ``[lo, hi]`` with polynomial ends."""

    lo: Polynomial
    hi: Polynomial

    @staticmethod
    def zero() -> "PolyInterval":
        return PolyInterval(Polynomial.zero(), Polynomial.zero())

    @staticmethod
    def point(poly: Polynomial) -> "PolyInterval":
        return PolyInterval(poly, poly)

    @staticmethod
    def of_constants(lo: float, hi: float) -> "PolyInterval":
        return PolyInterval(Polynomial.constant(lo), Polynomial.constant(hi))

    def __add__(self, other: "PolyInterval") -> "PolyInterval":
        return PolyInterval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, scalar: float) -> "PolyInterval":
        """Product with the point scalar ``[scalar, scalar]`` (exact)."""
        if scalar >= 0:
            return PolyInterval(self.lo.scale(scalar), self.hi.scale(scalar))
        return PolyInterval(self.hi.scale(scalar), self.lo.scale(scalar))

    def map_ends(self, fn: Callable[[Polynomial], Polynomial]) -> "PolyInterval":
        return PolyInterval(fn(self.lo), fn(self.hi))

    def is_zero(self) -> bool:
        return self.lo.is_zero() and self.hi.is_zero()

    def evaluate(self, valuation: dict[str, float]) -> Interval:
        lo = self.lo.evaluate(valuation)
        hi = self.hi.evaluate(valuation)
        if isinstance(lo, AffForm) or isinstance(hi, AffForm):
            raise TypeError("cannot evaluate a template interval to numbers")
        return Interval(min(lo, hi), max(lo, hi))

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


class MomentAnnotation:
    """``<[L_0,U_0], ..., [L_m,U_m]>`` — an element of ``M_PI^(m)``."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: list[PolyInterval]):
        self.intervals = list(intervals)

    # -- constructors -------------------------------------------------------------

    @staticmethod
    def zero(m: int) -> "MomentAnnotation":
        return MomentAnnotation([PolyInterval.zero() for _ in range(m + 1)])

    @staticmethod
    def one(m: int) -> "MomentAnnotation":
        """The multiplicative unit ``<[1,1],[0,0],...,[0,0]>``.

        This is the post-annotation of a whole program (nothing remains to
        be executed, so all moments of the remaining cost are zero and the
        termination probability is one).
        """
        intervals = [PolyInterval.of_constants(1.0, 1.0)]
        intervals += [PolyInterval.zero() for _ in range(m)]
        return MomentAnnotation(intervals)

    @staticmethod
    def of_point_vector(values: list[float]) -> "MomentAnnotation":
        return MomentAnnotation(
            [PolyInterval.of_constants(v, v) for v in values]
        )

    # -- semiring operations ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.intervals) - 1

    def oplus(self, other: "MomentAnnotation") -> "MomentAnnotation":
        if len(self.intervals) != len(other.intervals):
            raise ValueError("annotations of different moment orders")
        return MomentAnnotation(
            [a + b for a, b in zip(self.intervals, other.intervals)]
        )

    @staticmethod
    def oplus_all(annotations: "list[MomentAnnotation]") -> "MomentAnnotation":
        """``a_1 ⊕ a_2 ⊕ ... ⊕ a_n`` in one accumulation pass.

        Bit-identical to the left fold of :meth:`oplus` (same merge
        sequence per monomial), without materializing the intermediate
        annotations.
        """
        if not annotations:
            raise ValueError("oplus_all of no annotations")
        if len(annotations) == 1:
            return annotations[0]
        width = len(annotations[0].intervals)
        if any(len(a.intervals) != width for a in annotations):
            raise ValueError("annotations of different moment orders")
        return MomentAnnotation(
            [
                _accumulate_interval((a.intervals[k], 1.0) for a in annotations)
                for k in range(width)
            ]
        )

    def prefix_cost(self, cost: float) -> "MomentAnnotation":
        """``<[cost^k, cost^k]>_{k} ⊗ self`` — rule (Q-Tick).

        The binomial convolution of eq. (7) where the left operand is the
        (point-interval) moment vector of the deterministic cost.  The
        convolution accumulates into one mutable polynomial per interval
        end — the same ``_add_term`` sequence as chaining
        ``PolyInterval.scale`` and ``+``, minus the per-step dict copies
        (bit-identical results, linear allocation).
        """
        m = self.degree
        powers = [1.0]
        for _ in range(m):
            powers.append(powers[-1] * cost)
        return MomentAnnotation(
            [
                _accumulate_interval(
                    (self.intervals[k - i], binomial(k, i) * powers[i])
                    for i in range(k + 1)
                )
                for k in range(m + 1)
            ]
        )

    def scale(self, p: float) -> "MomentAnnotation":
        """``<[p,p],[0,0],...,[0,0]> ⊗ self`` for ``p >= 0`` — rule (Q-Prob)."""
        if p < 0:
            raise ValueError("probability scale must be nonnegative")
        return MomentAnnotation([iv.scale(p) for iv in self.intervals])

    def prob_mix(self, p: float, other: "MomentAnnotation") -> "MomentAnnotation":
        """``self.scale(p) ⊕ other.scale(1 - p)`` — the (Q-Prob) mix.

        The two scalings and the interval sum fuse into one accumulation
        pass per interval end (the same ``_add_term`` sequence, so results
        are bit-identical to the chained form), skipping two full
        intermediate annotations per branch point.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError("branch probability must lie in [0, 1]")
        q = 1.0 - p
        if len(self.intervals) != len(other.intervals):
            raise ValueError("annotations of different moment orders")
        return MomentAnnotation(
            [
                _accumulate_interval(((iv_a, p), (iv_b, q)))
                for iv_a, iv_b in zip(self.intervals, other.intervals)
            ]
        )

    # -- statement transfers -----------------------------------------------------------

    def substitute(self, var: str, poly: Polynomial) -> "MomentAnnotation":
        """Rule (Q-Assign): ``Q[poly / var]`` on every interval end.

        All ``2*(m+1)`` interval ends share one memoized
        :class:`~repro.poly.kernel.SubstitutionPlan`, so every monomial's
        expansion is computed once per (var, replacement) pair per process
        rather than once per end per statement.  ``poly`` must be concrete.
        """
        plan = substitution_plan(var, poly)
        return MomentAnnotation([iv.map_ends(plan.apply) for iv in self.intervals])

    def expect(self, var: str, dist: Distribution) -> "MomentAnnotation":
        """Rule (Q-Sample): ``E_{var ~ dist}[Q]`` on every interval end.

        The per-monomial moment replacements are shared across the interval
        ends through one :class:`~repro.poly.kernel.ExpectationPlan`.
        """
        plan = ExpectationPlan(var, dist.moment)
        return MomentAnnotation([iv.map_ends(plan.apply) for iv in self.intervals])

    # -- queries -----------------------------------------------------------------------

    def evaluate(self, valuation: dict[str, float]) -> list[Interval]:
        return [iv.evaluate(valuation) for iv in self.intervals]

    def max_end_degree(self) -> int:
        return max(
            max(iv.lo.degree(), iv.hi.degree()) for iv in self.intervals
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(iv) for iv in self.intervals)
        return f"<{inner}>"


def component_degree(k: int, template_degree: int, degree_cap: int | None) -> int:
    """Polynomial degree of the k-th moment component (``min(k*d, cap)``)."""
    degree = k * template_degree
    if degree_cap is not None:
        degree = min(degree, degree_cap)
    return max(degree, 1)


def fresh_annotation(
    lp: LPProblem,
    m: int,
    template_degree: int,
    variables: tuple[str, ...],
    label: str,
    restrict: int = 0,
    upper_only: bool = False,
    degree_cap: int | None = None,
) -> MomentAnnotation:
    """A fresh ``h``-restricted template annotation (section 3.3).

    Components ``k < restrict`` are pinned to ``[0,0]``; if ``restrict == 0``
    the 0-th component is the point ``[1,1]`` (termination probability, fixed
    to one for level-0 annotations as in the paper's examples).  Component
    ``k`` uses polynomials of degree up to ``k * template_degree`` with a
    fresh LP unknown per monomial.  With ``upper_only`` the lower ends are
    pinned to zero (valid for nonnegative costs; used by the raw-moment
    baseline and the termination checker).
    """
    intervals: list[PolyInterval] = []
    for k in range(m + 1):
        if k < restrict:
            intervals.append(PolyInterval.zero())
            continue
        if k == 0:
            intervals.append(PolyInterval.of_constants(1.0, 1.0))
            continue
        monos = monomials_up_to_degree(
            list(variables), component_degree(k, template_degree, degree_cap)
        )
        hi = Polynomial(
            {
                mono: AffForm.of_var(lp.fresh(f"{label}.U{k}[{mono!r}]"))
                for mono in monos
            }
        )
        if upper_only:
            lo = Polynomial.zero()
        else:
            lo = Polynomial(
                {
                    mono: AffForm.of_var(lp.fresh(f"{label}.L{k}[{mono!r}]"))
                    for mono in monos
                }
            )
        intervals.append(PolyInterval(lo, hi))
    return MomentAnnotation(intervals)
