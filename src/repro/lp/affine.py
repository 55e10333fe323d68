"""Affine forms over LP unknowns.

The template-based analysis of the paper (section 3.4) represents the
coefficients of potential-annotation polynomials as *unknowns of a linear
program*.  An :class:`AffForm` is an affine combination of such unknowns,
``const + sum_i coeff_i * var_i``.  All constraint generation in the analysis
bottoms out in equalities and inequalities between affine forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LinVar:
    """A single LP unknown, identified by a dense integer index."""

    index: int
    name: str

    def __repr__(self) -> str:
        return self.name


class VarPool:
    """Allocator for LP unknowns with dense indices.

    The dense indexing lets the LP backend build coefficient matrices
    directly, without an extra renaming pass.
    """

    def __init__(self) -> None:
        self._vars: list[LinVar] = []
        self._snapshot: tuple[LinVar, ...] | None = None

    def fresh(self, name: str) -> LinVar:
        var = LinVar(len(self._vars), f"{name}#{len(self._vars)}")
        self._vars.append(var)
        self._snapshot = None
        return var

    def __len__(self) -> int:
        return len(self._vars)

    def __getitem__(self, index: int) -> LinVar:
        return self._vars[index]

    @property
    def variables(self) -> tuple[LinVar, ...]:
        """An immutable view of the allocated unknowns.

        Cached between allocations: repeated access (every solver
        diagnostic, every resolve pass) must not copy the whole pool.
        """
        if self._snapshot is None:
            self._snapshot = tuple(self._vars)
        return self._snapshot


class AffForm:
    """``const + sum_i coeff_i * x_i`` with float coefficients.

    Supports addition, subtraction, negation and multiplication by a float
    scalar.  Multiplying two non-constant forms is a type error by design:
    the analysis must stay linear in the LP unknowns (this is what makes the
    whole inference an LP instead of an SDP).
    """

    __slots__ = ("terms", "const")

    def __init__(self, terms: dict[int, float] | None = None, const: float = 0.0):
        self.terms: dict[int, float] = terms if terms is not None else {}
        self.const: float = float(const)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(value: float) -> "AffForm":
        return AffForm({}, value)

    @staticmethod
    def of_var(var: LinVar, coeff: float = 1.0) -> "AffForm":
        if coeff == 0.0:
            return AffForm({}, 0.0)
        return AffForm({var.index: float(coeff)}, 0.0)

    # -- predicates --------------------------------------------------------

    def is_constant(self) -> bool:
        return not self.terms

    def is_zero(self) -> bool:
        return not self.terms and self.const == 0.0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "AffForm | float | int") -> "AffForm":
        other = _coerce(other)
        terms = dict(self.terms)
        for idx, coeff in other.terms.items():
            new = terms.get(idx, 0.0) + coeff
            if new == 0.0:
                terms.pop(idx, None)
            else:
                terms[idx] = new
        return AffForm(terms, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "AffForm":
        return AffForm({i: -c for i, c in self.terms.items()}, -self.const)

    def __sub__(self, other: "AffForm | float | int") -> "AffForm":
        return self + (-_coerce(other))

    def __rsub__(self, other: "AffForm | float | int") -> "AffForm":
        return _coerce(other) + (-self)

    def __mul__(self, scalar: object) -> "AffForm":
        if isinstance(scalar, AffForm):
            if scalar.is_constant():
                scalar = scalar.const
            elif self.is_constant():
                return scalar * self.const
            else:
                raise TypeError(
                    "product of two non-constant affine forms is non-linear; "
                    "the analysis must keep one operand concrete"
                )
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        if scalar == 0:
            return AffForm({}, 0.0)
        return AffForm(
            {i: c * scalar for i, c in self.terms.items()}, self.const * scalar
        )

    __rmul__ = __mul__

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, assignment: "list[float] | dict[int, float]") -> float:
        total = self.const
        for idx, coeff in self.terms.items():
            total += coeff * assignment[idx]
        return total

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float)):
            other = AffForm.constant(other)
        if not isinstance(other, AffForm):
            return NotImplemented
        return self.const == other.const and self.terms == other.terms

    def __hash__(self) -> int:
        # Constant forms compare equal to plain numbers (``__eq__`` above),
        # so they must hash like them: ``hash(AffForm.constant(2.0)) ==
        # hash(2.0) == hash(2)``.
        if not self.terms:
            return hash(self.const)
        return hash((self.const, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        parts = []
        if self.const or not self.terms:
            parts.append(f"{self.const:g}")
        for idx, coeff in sorted(self.terms.items()):
            parts.append(f"{coeff:+g}*v{idx}")
        return " ".join(parts)


class AffBuilder:
    """Mutable accumulator for affine forms.

    ``AffForm`` is immutable — every ``+`` allocates a fresh dict, which is
    fine for expression-level arithmetic but quadratic when a constraint is
    the sum of hundreds of certificate terms.  The builder accumulates
    in place and is consumed once (``to_form`` or direct ingestion by an LP
    backend).  Supports ``+=`` / ``-=`` with forms, builders, and numbers.
    """

    __slots__ = ("terms", "const")

    def __init__(self, terms: dict[int, float] | None = None, const: float = 0.0):
        self.terms: dict[int, float] = terms if terms is not None else {}
        self.const: float = float(const)

    # -- in-place accumulation ---------------------------------------------

    def add_const(self, value: float) -> "AffBuilder":
        self.const += value
        return self

    def add_var(self, var: "LinVar | int", coeff: float = 1.0) -> "AffBuilder":
        if coeff == 0.0:
            return self
        idx = var.index if isinstance(var, LinVar) else var
        terms = self.terms
        new = terms.get(idx, 0.0) + coeff
        if new == 0.0:
            terms.pop(idx, None)
        else:
            terms[idx] = new
        return self

    def add(self, other: "AffForm | AffBuilder | float | int", scale: float = 1.0) -> "AffBuilder":
        """``self += scale * other`` without allocating intermediates."""
        if isinstance(other, (int, float)):
            self.const += scale * other
            return self
        if not isinstance(other, (AffForm, AffBuilder)):
            raise TypeError(f"cannot accumulate {other!r}")
        terms = self.terms
        if scale == 1.0:
            for idx, coeff in other.terms.items():
                new = terms.get(idx, 0.0) + coeff
                if new == 0.0:
                    terms.pop(idx, None)
                else:
                    terms[idx] = new
            self.const += other.const
        elif scale != 0.0:
            for idx, coeff in other.terms.items():
                new = terms.get(idx, 0.0) + scale * coeff
                if new == 0.0:
                    terms.pop(idx, None)
                else:
                    terms[idx] = new
            self.const += scale * other.const
        return self

    def __iadd__(self, other: "AffForm | AffBuilder | float | int") -> "AffBuilder":
        return self.add(other)

    def __isub__(self, other: "AffForm | AffBuilder | float | int") -> "AffBuilder":
        return self.add(other, scale=-1.0)

    def negate(self) -> "AffBuilder":
        self.terms = {i: -c for i, c in self.terms.items()}
        self.const = -self.const
        return self

    # -- queries ------------------------------------------------------------

    def is_constant(self) -> bool:
        return not self.terms

    def is_zero(self) -> bool:
        return not self.terms and self.const == 0.0

    def to_form(self) -> AffForm:
        """Freeze into an immutable :class:`AffForm` (shares the term dict;
        do not mutate the builder afterwards)."""
        return AffForm(self.terms, self.const)

    def __repr__(self) -> str:
        return f"AffBuilder({self.to_form()!r})"


def _coerce(value: "AffForm | float | int") -> AffForm:
    if isinstance(value, AffForm):
        return value
    if isinstance(value, (int, float)):
        return AffForm.constant(float(value))
    raise TypeError(f"cannot coerce {value!r} to AffForm")
