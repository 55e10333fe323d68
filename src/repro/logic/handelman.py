"""Handelman-style nonnegativity certificates ("rewrite functions").

To discharge ``Γ |= p >= 0`` for a *template* polynomial ``p`` (coefficients
affine in LP unknowns), the paper represents the slack as a conical
combination of products of the constraints of Γ (section 3.4: slack
polynomials as "conical combinations of expressions E in Γ", generalized to
products for polynomial templates — Handelman's Positivstellensatz).

:func:`certificate_products` enumerates the products ``g_{i1} * ... * g_{ik}``
of degree at most ``degree`` (including the empty product 1);
:func:`emit_nonneg_certificate` adds to an LP the fresh multipliers
``λ_j >= 0`` and the coefficient-matching equalities ``p == Σ λ_j prod_j``.

Vectorized emission
-------------------
Contexts repeat heavily — every containment emits ``2*(m+1)`` certificates
under the same Γ, and loop heads/branches re-visit identical constraint
sets — so the product set for a ``(context, degree)`` pair is computed once
and cached as a :class:`CertificateBasis`: a column-compressed layout of the
``(n_products, n_basis_monomials)`` coefficient matrix over the interned
monomial basis (:mod:`repro.poly.monomial`).  Emission then streams each
basis monomial's λ-column into its :class:`~repro.lp.affine.AffBuilder` as
one C-level ``dict.update`` over precomputed id/coefficient arrays, instead
of a per-product per-monomial Python loop.

The emitted rows are exactly those of the one-product-at-a-time loop over
:func:`certificate_products` — same λ variable names and allocation order,
same float coefficients (the basis is built from that same computation),
same per-builder term insertion order, same LP row order.
``tests/test_poly_kernel.py`` checks emission against that loop.
"""

from __future__ import annotations

import itertools
import os
import threading

import numpy as np

from repro.logic.context import Context
from repro.lp.affine import AffBuilder, AffForm
from repro.lp.problem import LPProblem
from repro.poly.monomial import Monomial
from repro.poly.polynomial import Polynomial

#: Safety valve: contexts are small (a handful of constraints), but product
#: enumeration is combinatorial; certificates beyond this size indicate a
#: modelling problem rather than a precision need.
MAX_PRODUCTS = 2000

#: Memoized certificate bases per ``(context cache key, degree)``.  Bounded
#: only as a safety valve — a process analyzing one workload sees a few
#: hundred distinct keys.
_BASIS_CACHE: dict[tuple, "CertificateBasis"] = {}
_BASIS_LOCK = threading.Lock()
_BASIS_CACHE_CAP = 8192
if hasattr(os, "register_at_fork"):  # a forked child gets the lock released
    os.register_at_fork(after_in_child=_BASIS_LOCK._at_fork_reinit)


class CertificateBasis:
    """One context's certificate products in column-compressed array form.

    ``columns`` holds, per basis monomial (in first-encounter order over
    the products, then their terms), the λ row indices that mention it
    and the *negated* float coefficients ready for ingestion: row ``j`` of
    column ``m`` says product ``j`` contributes ``-coeff`` to the
    coefficient-matching equality of monomial ``m``.
    """

    __slots__ = ("n_products", "columns")

    def __init__(
        self,
        n_products: int,
        columns: tuple[tuple[Monomial, np.ndarray, list[float]], ...],
    ):
        self.n_products = n_products
        self.columns = columns

    @staticmethod
    def from_products(products: list[Polynomial]) -> "CertificateBasis":
        cols: dict[Monomial, tuple[list[int], list[float]]] = {}
        for j, prod in enumerate(products):
            for mono, c in prod.coeffs.items():
                entry = cols.get(mono)
                if entry is None:
                    cols[mono] = entry = ([], [])
                entry[0].append(j)
                entry[1].append(-float(c))
        columns = tuple(
            (mono, np.asarray(rows, dtype=np.int64), negs)
            for mono, (rows, negs) in cols.items()
        )
        return CertificateBasis(len(products), columns)


def certificate_products(ctx: Context, degree: int) -> list[Polynomial]:
    """All products of Γ-constraints with total degree <= ``degree``.

    The first element is always the constant polynomial 1 (the ``λ0`` term).
    Duplicate constraints are skipped.
    """
    products: list[Polynomial] = [Polynomial.constant(1.0)]
    if degree <= 0:
        return products
    base = [g.expr.to_polynomial() for g in ctx.ineqs]
    for size in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(len(base)), size):
            prod = Polynomial.constant(1.0)
            for i in combo:
                prod = prod * base[i]
            products.append(prod)
            if len(products) > MAX_PRODUCTS:
                raise ValueError(
                    f"Handelman certificate blow-up: more than {MAX_PRODUCTS} "
                    f"products for a context with {len(base)} constraints at "
                    f"degree {degree}"
                )
    return products


def certificate_basis(ctx: Context, degree: int) -> CertificateBasis:
    """The memoized column-compressed product set for ``(ctx, degree)``.

    Cache misses run :func:`certificate_products` — the single source of
    truth for the product polynomials and their float coefficients — so a
    cached basis is indistinguishable from a fresh recomputation.
    """
    key = (ctx.cache_key, degree)
    basis = _BASIS_CACHE.get(key)
    if basis is not None:
        return basis
    basis = CertificateBasis.from_products(certificate_products(ctx, degree))
    with _BASIS_LOCK:
        if len(_BASIS_CACHE) >= _BASIS_CACHE_CAP:
            _BASIS_CACHE.clear()
        _BASIS_CACHE[key] = basis
    return basis


def clear_certificate_caches() -> None:
    """Drop memoized certificate bases (benchmarks measure cold derivations)."""
    with _BASIS_LOCK:
        _BASIS_CACHE.clear()


def certificate_cache_stats() -> dict[str, int]:
    return {"bases": len(_BASIS_CACHE)}


def emit_nonneg_certificate(
    lp: LPProblem,
    ctx: Context,
    poly: Polynomial,
    degree: int,
    label: str = "cert",
    minus: Polynomial | None = None,
) -> None:
    """Constrain ``poly - minus >= 0`` to hold under ``ctx`` (sufficient).

    Emits ``poly - minus == Σ_j λ_j prod_j`` with fresh ``λ_j >= 0`` into
    ``lp``.  A bottom context makes the requirement vacuous, as does a target
    that cancels to zero (``minus`` lets callers certify a difference without
    materializing it as a polynomial first).

    All coefficient matching goes through :class:`AffBuilder` accumulators —
    one per monomial — instead of repeated immutable polynomial sums; with
    hundreds of certificate products per containment this is the difference
    between linear and quadratic assembly cost.  The λ-multiplier columns
    come from the memoized :class:`CertificateBasis` and land in the
    builders via bulk ``dict.update`` calls over precomputed arrays.
    """
    if ctx.bottom:
        return
    # A polynomial mentions each monomial once, so the first pass can seed
    # the builders with C-level dict copies instead of per-term merges.
    target: dict[Monomial, AffBuilder] = {}
    for mono, coeff in poly.coeffs.items():
        if isinstance(coeff, AffForm):
            target[mono] = AffBuilder(dict(coeff.terms), coeff.const)
        else:
            target[mono] = AffBuilder(None, coeff)
    if minus is not None:
        for mono, coeff in minus.coeffs.items():
            builder = target.get(mono)
            if builder is not None:
                builder.add(coeff, scale=-1.0)
            elif isinstance(coeff, AffForm):
                target[mono] = AffBuilder(
                    {i: -c for i, c in coeff.terms.items()}, -coeff.const
                )
            else:
                target[mono] = AffBuilder(None, -coeff)
    if any(b.is_zero() for b in target.values()):
        target = {m: b for m, b in target.items() if not b.is_zero()}
    if not target:
        return
    if all(m.is_unit() and b.is_constant() for m, b in target.items()):
        const = sum(b.const for b in target.values())
        if const < -1e-9:
            raise ValueError(f"constant certificate target {const!r} is negative")
        return
    cert_degree = max(degree, max(m.degree for m in target))

    basis = certificate_basis(ctx, cert_degree)
    # One λ_j per product, allocated in product order: indices are
    # contiguous from lam_base.
    lam_base = lp.fresh_nonneg(f"{label}.λ0").index
    for j in range(1, basis.n_products):
        lp.fresh_nonneg(f"{label}.λ{j}")
    for mono, rows, negs in basis.columns:
        builder = target.get(mono)
        if builder is None:
            target[mono] = builder = AffBuilder()
        # Fresh λ indices cannot collide with existing template terms,
        # so a bulk update preserves add_var semantics; rows are in
        # ascending j, the order of a per-product scan.
        builder.terms.update(zip((rows + lam_base).tolist(), negs))

    for mono, builder in target.items():
        lp.add_eq(builder, note=f"{label}[{mono!r}]")
