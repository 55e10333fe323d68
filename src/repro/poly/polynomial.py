"""Sparse multivariate polynomials with exchangeable coefficient rings.

Coefficients are either plain ``float`` (concrete polynomials: program
expressions, Handelman certificate products, extracted bounds) or
:class:`repro.lp.affine.AffForm` (template polynomials whose coefficients are
LP unknowns, section 3.4 of the paper).  The operations required by the
derivation system keep templates *linear* in the LP unknowns:

* template + template, template - template
* template * concrete scalar / concrete polynomial
* substitution of a program variable by a *concrete* polynomial
* replacement of powers ``x^k`` by the k-th moment of a distribution

Products of two templates are rejected by ``AffForm.__mul__`` — by design,
since they would leave the LP fragment.

The last two run on memoized basis-change plans over the interned monomial
basis (:mod:`repro.poly.kernel`).  A plan computes exactly what expanding
term by term with the ring operations here computes — same floats, same key
order — only with each monomial's expansion shared across calls.
"""

from __future__ import annotations

from typing import Callable, Iterable, Union

from repro.lp.affine import AffForm
from repro.poly.monomial import Monomial

Coeff = Union[float, AffForm]


def _is_zero_coeff(c: Coeff) -> bool:
    if isinstance(c, AffForm):
        return c.is_zero()
    return c == 0.0


class Polynomial:
    """A sparse polynomial ``sum_m coeff_m * m`` over program variables."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[Monomial, Coeff] | None = None):
        self.coeffs: dict[Monomial, Coeff] = {}
        if coeffs:
            for mono, c in coeffs.items():
                if not _is_zero_coeff(c):
                    self.coeffs[mono] = c

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(value: Coeff) -> "Polynomial":
        return Polynomial({Monomial.unit(): value})

    @staticmethod
    def var(name: str) -> "Polynomial":
        return Polynomial({Monomial.of(name): 1.0})

    @staticmethod
    def from_terms(terms: Iterable[tuple[Monomial, Coeff]]) -> "Polynomial":
        poly = Polynomial()
        for mono, c in terms:
            poly._add_term(mono, c)
        return poly

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(m.is_unit() for m in self.coeffs)

    def constant_value(self) -> Coeff:
        return self.coeffs.get(Monomial.unit(), 0.0)

    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(m.degree for m in self.coeffs)

    def variables(self) -> set[str]:
        names: set[str] = set()
        for mono in self.coeffs:
            names.update(mono.variables())
        return names

    def coefficient(self, mono: Monomial) -> Coeff:
        return self.coeffs.get(mono, 0.0)

    def is_concrete(self) -> bool:
        """True when every coefficient is a plain float."""
        return all(not isinstance(c, AffForm) for c in self.coeffs.values())

    # -- mutation helper (private) --------------------------------------------

    def _add_term(self, mono: Monomial, c: Coeff) -> None:
        if _is_zero_coeff(c):
            return
        if mono in self.coeffs:
            merged = self.coeffs[mono] + c
            if _is_zero_coeff(merged):
                del self.coeffs[mono]
            else:
                self.coeffs[mono] = merged
        else:
            self.coeffs[mono] = c

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "Polynomial | float | int") -> "Polynomial":
        other = _coerce(other)
        result = Polynomial(dict(self.coeffs))
        for mono, c in other.coeffs.items():
            result._add_term(mono, c)
        return result

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "Polynomial | float | int") -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Polynomial | float | int") -> "Polynomial":
        return _coerce(other) + (-self)

    def scale(self, scalar: float) -> "Polynomial":
        if scalar == 0:
            return Polynomial.zero()
        return Polynomial({m: c * scalar for m, c in self.coeffs.items()})

    def __mul__(self, other: "Polynomial | float | int") -> "Polynomial":
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        result = Polynomial()
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                result._add_term(m1 * m2, c1 * c2)
        return result

    def __rmul__(self, other: "Polynomial | float | int") -> "Polynomial":
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Polynomial.constant(1.0)
        for _ in range(exponent):
            result = result * self
        return result

    # -- analysis-specific operations -------------------------------------------

    def substitute(self, var: str, replacement: "Polynomial") -> "Polynomial":
        """Capture-free substitution ``self[replacement / var]``.

        ``replacement`` must be concrete (a template raises ``TypeError``),
        so the result stays affine in the LP unknowns.  The expansion runs
        on a memoized :class:`repro.poly.kernel.SubstitutionPlan`.
        """
        from repro.poly.kernel import substitution_plan

        return substitution_plan(var, replacement).apply(self)

    def evaluate(self, valuation: dict[str, float]) -> Coeff:
        """Evaluate program variables; the result is a coefficient."""
        total: Coeff = 0.0
        for mono, c in self.coeffs.items():
            total = total + c * mono.evaluate(valuation)
        return total

    def map_coefficients(self, fn: Callable[[Coeff], Coeff]) -> "Polynomial":
        return Polynomial({m: fn(c) for m, c in self.coeffs.items()})

    # -- comparison / display ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float)):
            other = Polynomial.constant(float(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self) -> int:
        return hash(tuple(sorted(((repr(m), repr(c)) for m, c in self.coeffs.items()))))

    def __repr__(self) -> str:
        return format_polynomial(self)


def _coerce(value: "Polynomial | float | int") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, float)):
        return Polynomial.constant(float(value))
    raise TypeError(f"cannot coerce {value!r} to Polynomial")


def format_polynomial(poly: Polynomial, precision: int = 6) -> str:
    """Human-readable rendering, ordered by decreasing degree."""
    if poly.is_zero():
        return "0"
    parts: list[str] = []
    ordered = sorted(poly.coeffs.items(), key=lambda kv: (-kv[0].degree, repr(kv[0])))
    for mono, c in ordered:
        if isinstance(c, AffForm):
            coeff_str = f"({c!r})"
        else:
            coeff_str = f"{round(c, precision):g}"
        if mono.is_unit():
            parts.append(coeff_str)
        elif coeff_str in ("1", "1.0"):
            parts.append(repr(mono))
        elif coeff_str in ("-1", "-1.0"):
            parts.append(f"-{mono!r}")
        else:
            parts.append(f"{coeff_str}*{mono!r}")
    text = " + ".join(parts)
    return text.replace("+ -", "- ")
