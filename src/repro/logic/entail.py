"""Entailment between linear assertions, decided exactly in rationals.

``Γ |= t >= 0`` over the reals holds iff ``Γ ∧ t < 0`` is infeasible (an
infeasible Γ entails everything).  By Motzkin's transposition theorem that
is the paper's Farkas question (section 3.4): is ``t = λ0 + Σ λ_i g_i`` for
some ``λ >= 0``?  Every float coefficient converts exactly
(``Fraction(float)``), so the answer is exact: there is no tolerance and no
float fallback.

Two deciders share the question:

* **Fourier–Motzkin elimination** projects the variables out one at a time,
  tracking strictness per row.  A row is held as a primitive integer
  coefficient vector with a rational constant, so duplicate and parallel
  rows collapse to the strongest one.  The analyzer's contexts are tiny (a
  dozen rows over a handful of variables), where this is the fastest exact
  method.
* **A two-phase simplex over** ``Fraction`` **with Bland's rule** minimises
  ``t`` subject to Γ whenever an elimination step would hold more than
  :data:`FM_ROW_CAP` rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from repro.logic.linear import LinExpr, LinIneq

#: Most rows one Fourier–Motzkin step may produce before the query moves to
#: the rational simplex.
FM_ROW_CAP = 256

#: One row ``coefs · x + const >= 0`` (``> 0`` when strict).  ``coefs`` is a
#: primitive integer vector over the query's variables.
_Row = tuple[tuple[int, ...], Fraction, bool]


def _primitive(coefs: list[int], const: Fraction) -> tuple[tuple[int, ...], Fraction]:
    """Scale ``coefs`` (and ``const``) by a positive factor to gcd 1."""
    g = gcd(*coefs)
    if g > 1:
        return tuple(c // g for c in coefs), const / g
    return tuple(coefs), const


def _row(expr: LinExpr, index: dict[str, int]) -> tuple[tuple[int, ...], Fraction]:
    """``expr`` as a primitive integer row, scaled by a positive factor."""
    fracs = {index[v]: Fraction(c) for v, c in expr.coeffs}
    den = lcm(*(f.denominator for f in fracs.values()))
    coefs = [0] * len(index)
    for j, f in fracs.items():
        coefs[j] = f.numerator * (den // f.denominator)
    return _primitive(coefs, Fraction(expr.const) * den)


def _add(rows: dict, coefs: tuple[int, ...], const: Fraction, strict: bool) -> bool:
    """Insert a row, keeping the strongest of parallel ones; False iff the
    row is a constant contradiction."""
    if not any(coefs):
        return const > 0 or (const == 0 and not strict)
    old = rows.get(coefs)
    if old is None or const < old[0] or (const == old[0] and strict and not old[1]):
        rows[coefs] = (const, strict)
    return True


def _fm_infeasible(rows: dict, n: int) -> "bool | None":
    """Fourier–Motzkin: is the system ``rows`` infeasible?  None when a step
    would exceed :data:`FM_ROW_CAP` rows."""
    while rows:
        pos, neg = [0] * n, [0] * n
        for coefs in rows:
            for j, c in enumerate(coefs):
                if c > 0:
                    pos[j] += 1
                elif c < 0:
                    neg[j] += 1
        # Eliminate the variable whose step adds the fewest rows.
        j = min(
            (pos[k] * neg[k] - pos[k] - neg[k], k)
            for k in range(n) if pos[k] or neg[k]
        )[1]
        kept: dict = {}
        lower: list[_Row] = []
        upper: list[_Row] = []
        for coefs, (const, strict) in rows.items():
            c = coefs[j]
            if c > 0:
                lower.append((coefs, const, strict))
            elif c < 0:
                upper.append((coefs, const, strict))
            else:
                kept[coefs] = (const, strict)
        if len(kept) + len(lower) * len(upper) > FM_ROW_CAP:
            return None
        # A variable bounded on one side only drops out with its rows.
        for cp, kp, sp in lower:
            a = cp[j]
            for cn, kn, sn in upper:
                b = -cn[j]
                coefs, const = _primitive(
                    [b * x + a * y for x, y in zip(cp, cn)], b * kp + a * kn
                )
                if not _add(kept, coefs, const, sp or sn):
                    return True
        rows = kept
    return False


def _pivot(tab: list[list[Fraction]], obj: list[Fraction], basis: list[int], r: int, j: int) -> None:
    row = tab[r]
    p = row[j]
    if p != 1:
        tab[r] = row = [v / p for v in row]
    for i, other in enumerate(tab):
        f = other[j]
        if i != r and f:
            tab[i] = [a - f * b for a, b in zip(other, row)]
    f = obj[j]
    if f:
        obj[:] = [a - f * b for a, b in zip(obj, row)]
    basis[r] = j


def _optimize(tab, obj, basis, columns: int) -> bool:
    """Primal simplex with Bland's rule on the first ``columns`` columns;
    False iff the objective is unbounded below."""
    while True:
        j = next((k for k in range(columns) if obj[k] < 0), None)
        if j is None:
            return True
        best = None
        for i, row in enumerate(tab):
            if row[j] > 0:
                ratio = row[-1] / row[j]
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            return False
        _pivot(tab, obj, basis, best[1], j)


def _simplex_entails(
    gamma: list[tuple[tuple[int, ...], Fraction]],
    target: tuple[tuple[int, ...], Fraction],
) -> bool:
    """Is ``min target`` subject to ``gamma`` (rows ``a·x + k >= 0``) at
    least 0, or ``gamma`` infeasible?  Exact two-phase simplex.

    Columns: ``x+`` (n), ``x-`` (n), one surplus per row, then one
    artificial per row whose surplus cannot start basic.
    """
    n, m = len(target[0]), len(gamma)
    needs_art = [k <= 0 for _, k in gamma]
    first_art = 2 * n + m
    width = first_art + sum(needs_art)
    tab: list[list[Fraction]] = []
    basis: list[int] = []
    art = first_art
    for i, (coefs, k) in enumerate(gamma):
        # a·x+ - a·x- - s_i = -k, negated when -k < 0 so s_i starts basic.
        row = [Fraction(0)] * (width + 1)
        sign = 1 if needs_art[i] else -1
        for j, c in enumerate(coefs):
            row[j] = Fraction(sign * c)
            row[n + j] = Fraction(-sign * c)
        row[2 * n + i] = Fraction(-sign)
        row[-1] = -sign * k
        if needs_art[i]:
            row[art] = Fraction(1)
            basis.append(art)
            art += 1
        else:
            basis.append(2 * n + i)
        tab.append(row)

    # Phase 1: minimise the sum of the artificials.
    obj = [Fraction(0)] * (width + 1)
    for j in range(first_art, width):
        obj[j] = Fraction(1)
    for row, b in zip(tab, basis):
        if b >= first_art:
            obj = [a - v for a, v in zip(obj, row)]
    _optimize(tab, obj, basis, width)
    if obj[-1] != 0:
        return True  # Γ is infeasible
    # Pivot the artificials (all at zero) out of the basis.  Every row has
    # its own surplus column, so each row has a nonzero original entry.
    for i, b in enumerate(basis):
        if b >= first_art:
            j = next(k for k in range(first_art) if tab[i][k])
            _pivot(tab, obj, basis, i, j)

    # Phase 2: minimise the target over the original columns.
    coefs, const = target
    cost = [Fraction(c) for c in coefs] + [Fraction(-c) for c in coefs]
    obj = cost + [Fraction(0)] * (width + 1 - 2 * n)
    for row, b in zip(tab, basis):
        if b < 2 * n and cost[b]:
            f = cost[b]
            obj = [a - f * v for a, v in zip(obj, row)]
    if not _optimize(tab, obj, basis, first_art):
        return False  # unbounded below
    return const - obj[-1] >= 0


@lru_cache(maxsize=100_000)
def _entails_cached(gamma: tuple[LinIneq, ...], target: LinIneq) -> bool:
    variables = sorted(set(target.variables()).union(*(g.variables() for g in gamma)))
    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    hyps = [_row(g.expr, index) for g in gamma]
    goal = _row(target.expr, index)
    rows: dict = {}
    for coefs, const in hyps:
        if not _add(rows, coefs, const, False):
            return True
    # The negated target: -t > 0.
    if not _add(rows, tuple(-c for c in goal[0]), -goal[1], True):
        return True
    infeasible = _fm_infeasible(rows, n)
    if infeasible is None:
        return _simplex_entails(hyps, goal)
    return infeasible


def entails(gamma: "tuple[LinIneq, ...] | list[LinIneq]", target: LinIneq) -> bool:
    """Does the conjunction of ``gamma`` entail ``target`` over the reals?"""
    if target.is_trivial():
        return True
    return _entails_cached(tuple(gamma), target)


def is_feasible(gamma: "tuple[LinIneq, ...] | list[LinIneq]") -> bool:
    """Is the conjunction of ``gamma`` satisfiable over the reals?"""
    contradiction = LinIneq(LinExpr.constant(-1.0))
    return not entails(tuple(gamma), contradiction)
