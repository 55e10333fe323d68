"""The vectorized symbolic kernel: reusable substitution/expectation plans
over the interned monomial basis.

The derivation system's hot loops (rule Q-Assign substitutions, rule
Q-Sample expectations, the fused moment-semiring sums) are fixed-basis
linear algebra: every polynomial lives in the span of a small set of
monomials that repeats across templates, components, and contexts.
:class:`SubstitutionPlan` / :class:`ExpectationPlan` expand the basis change
induced by ``[replacement / var]`` or by replacing powers ``var^k`` with raw
moments once per source monomial and reuse it across every interval end and
moment component that substitutes the same thing; :class:`TermAccumulator`
merges the contributions in place instead of allocating an affine form per
term.  Plans work for template polynomials too: the expansion factors are
concrete, so coefficients stay affine.

Exactness discipline
--------------------
Every path here accumulates float contributions in the order the rules
compose them with plain :class:`~repro.poly.polynomial.Polynomial`
arithmetic (row-major pair order for products, source-term order for
substitutions), and reproduces that arithmetic's key order — including the
delete-on-zero/reinsert-at-end corner of ``Polynomial._add_term``.  Key
order decides LP row and column order, so the emitted LP does not depend on
which of the two computed it; ``tests/test_poly_kernel.py`` checks every
plan and fused operation against references composed from those
primitives.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

from repro.lp.affine import AffBuilder, AffForm
from repro.poly.monomial import Monomial
from repro.poly.polynomial import Polynomial

_MISSING = object()

_PLAN_CACHE: dict[tuple, "SubstitutionPlan"] = {}
_PLAN_LOCK = threading.Lock()
#: Plans are tiny (a handful of cached rows each); the cap only guards
#: against pathological workloads with unbounded distinct assignments.
_PLAN_CACHE_CAP = 4096
if hasattr(os, "register_at_fork"):  # a forked child gets the lock released
    os.register_at_fork(after_in_child=_PLAN_LOCK._at_fork_reinit)


def clear_plan_caches() -> None:
    """Drop memoized substitution plans (benchmarks measure cold starts)."""
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()


class TermAccumulator:
    """Replays a ``Polynomial._add_term`` sequence of scaled contributions
    without materializing the scaled coefficients.

    Plain polynomial arithmetic computes ``c * factor`` (allocating a scaled
    :class:`AffForm` per contribution) and merges it into the result dict
    (allocating another on every collision).  The accumulator keeps a plain
    float or a mutable :class:`AffBuilder` per monomial and applies the
    identical float operations (``existing + scale * coeff``) in the
    identical sequence, including the dict-semantics corner cases: a
    contribution that is exactly zero is skipped, and a coefficient whose
    merge cancels to zero is *deleted* (so a later contribution re-inserts
    the monomial at the end, exactly like ``_add_term``).

    The one knowing deviation: ``c * factor`` can keep an explicit ``0.0``
    term inside an ``AffForm`` when an individual product underflows
    (``AffForm.__mul__`` does not filter), while the builder drops it.  That
    requires a coefficient product below ~5e-324; the analysis' dyadic
    constants cannot produce one.
    """

    __slots__ = ("accs",)

    def __init__(self) -> None:
        self.accs: dict = {}

    def add(self, mono, c, scale: float = 1.0) -> None:
        """``result[mono] += scale * c`` with ``_add_term`` semantics.

        An AffForm contribution — even a constant-valued one — makes the
        accumulated coefficient an AffForm, exactly as ``float + AffForm``
        promotes in :class:`Polynomial` arithmetic.
        """
        if scale == 0.0:
            return
        accs = self.accs
        acc = accs.get(mono)
        if isinstance(c, AffForm):
            if not c.terms and c.const * scale == 0.0:
                return  # the scaled contribution is the zero form — skipped
            if acc is None:
                builder = AffBuilder()
                builder.add(c, scale)
                if not builder.is_zero():
                    accs[mono] = builder
            elif isinstance(acc, AffBuilder):
                acc.add(c, scale)
                if acc.is_zero():
                    del accs[mono]
            else:  # float accumulator meets an AffForm contribution
                builder = AffBuilder(None, acc)
                builder.add(c, scale)
                if builder.is_zero():
                    del accs[mono]
                else:
                    accs[mono] = builder
            return
        value = c * scale
        if value == 0.0:
            return
        if acc is None:
            accs[mono] = value
        elif isinstance(acc, AffBuilder):
            acc.const += value
            if acc.is_zero():
                del accs[mono]
        else:
            merged = acc + value
            if merged == 0.0:
                del accs[mono]
            else:
                accs[mono] = merged

    def to_polynomial(self) -> Polynomial:
        poly = Polynomial()
        poly.coeffs = {
            mono: acc.to_form() if isinstance(acc, AffBuilder) else acc
            for mono, acc in self.accs.items()
        }
        return poly


class SubstitutionPlan:
    """The basis change induced by ``[replacement / var]`` (rule Q-Assign).

    For every source monomial the expansion ``rest * replacement^e`` is
    computed once and cached as a tuple of ``(output monomial, factor)``
    pairs — the nonzero entries of one row of the basis-change matrix.
    Applying the plan to a polynomial (template or concrete) is then a flat
    scan; the ``2*(m+1)`` interval ends of a moment annotation, and repeated
    assignments across components, all share one plan.

    The factors are the exact float products of ``rest * replacement ** e``
    in :class:`Polynomial` arithmetic (same power-computation order, same
    term order), so applying a plan is bit-identical to expanding the
    substitution term by term.
    """

    __slots__ = ("var", "replacement", "_powers", "_rows")

    def __init__(self, var: str, replacement: Polynomial):
        if not replacement.is_concrete():
            raise TypeError("substitution plans require a concrete replacement")
        self.var = var
        self.replacement = replacement
        self._powers: dict[int, Polynomial] = {0: Polynomial.constant(1.0)}
        self._rows: dict[int, tuple[tuple[Monomial, float], ...] | None] = {}

    def _power(self, e: int) -> Polynomial:
        powers = self._powers
        while e not in powers:
            k = max(powers)
            powers[k + 1] = powers[k] * self.replacement
        return powers[e]

    def row(self, mono: Monomial) -> "tuple[tuple[Monomial, float], ...] | None":
        """The expansion of ``mono``; ``None`` when ``var`` does not occur."""
        row = self._rows.get(mono.iid, _MISSING)
        if row is not _MISSING:
            return row
        e = mono.exponent_of(self.var)
        if e == 0:
            row = None
        else:
            rest = mono.without(self.var)
            row = tuple(
                (rest * sub_mono, sub_c)
                for sub_mono, sub_c in self._power(e).coeffs.items()
            )
        self._rows[mono.iid] = row
        return row

    def apply(self, poly: Polynomial) -> Polynomial:
        """``poly[replacement / var]`` on the dict representation.

        Contributions stream through a :class:`TermAccumulator`, so template
        coefficients are scaled and merged in place instead of allocating an
        ``AffForm`` per (source term, expansion entry) pair.
        """
        acc = TermAccumulator()
        add = acc.add
        for mono, c in poly.coeffs.items():
            row = self.row(mono)
            if row is None:
                add(mono, c)
            else:
                for out_mono, factor in row:
                    add(out_mono, c, factor)
        return acc.to_polynomial()


def substitution_plan(var: str, replacement: Polynomial) -> SubstitutionPlan:
    """A (memoized) plan for ``[replacement / var]``.

    The cache key is order-sensitive in the replacement's terms: two
    polynomials with the same terms in different dict orders compute their
    powers in different float-accumulation orders, and the plans must not be
    conflated if results are to stay bit-identical to term-by-term expansion.
    """
    key = (var, tuple((m.iid, c) for m, c in replacement.coeffs.items()))
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = SubstitutionPlan(var, replacement)
        with _PLAN_LOCK:
            if len(_PLAN_CACHE) >= _PLAN_CACHE_CAP:
                _PLAN_CACHE.clear()
            _PLAN_CACHE[key] = plan
    return plan


class ExpectationPlan:
    """Rule (Q-Sample) as a basis change: ``var^k`` becomes ``moment(k)``.

    Not globally memoized (the moment function is an opaque callable); one
    plan is shared across all interval ends of one ``expect`` application.
    """

    __slots__ = ("var", "moment", "_rows")

    def __init__(self, var: str, moment: Callable[[int], float]):
        self.var = var
        self.moment = moment
        self._rows: dict[int, tuple[Monomial, float] | None] = {}

    def row(self, mono: Monomial) -> "tuple[Monomial, float] | None":
        row = self._rows.get(mono.iid, _MISSING)
        if row is not _MISSING:
            return row
        e = mono.exponent_of(self.var)
        row = None if e == 0 else (mono.without(self.var), self.moment(e))
        self._rows[mono.iid] = row
        return row

    def apply(self, poly: Polynomial) -> Polynomial:
        acc = TermAccumulator()
        add = acc.add
        for mono, c in poly.coeffs.items():
            row = self.row(mono)
            if row is None:
                add(mono, c)
            else:
                add(row[0], c, row[1])
        return acc.to_polynomial()
