"""Monomials over program variables, interned in a process-wide basis table.

A monomial is a finite map from variable names to positive integer exponents,
stored as a sorted tuple so it is hashable and has a canonical form.  These
are the index set of the sparse polynomials in :mod:`repro.poly.polynomial`,
which in turn are the interval ends of the moment annotations (section 3.3 of
the paper: "we represent the ends of intervals by polynomials over program
variables").

The symbolic kernel (:mod:`repro.poly.kernel`) treats monomials as *small
integer ids* instead of tuples: every canonical power product is interned
once per process (:func:`intern_id`), and pairwise products are memoized in
an ``id x id -> id`` table, so ``Monomial.__mul__`` is a dict probe instead
of a merge-sort-validate pass.  Interning is exact (no floats are involved),
so it changes how fast products are found, never which monomial results.

Ids are process-local: they are assigned in first-intern order and never
serialized.  Pickling a :class:`Monomial` transports only the canonical
``powers`` tuple; the id (and the cached hash) are re-derived lazily in the
receiving process.
"""

from __future__ import annotations

import itertools
import os
import threading


class Monomial:
    """A power product ``prod_i x_i^{e_i}`` with all ``e_i >= 1``.

    Immutable by convention (the analysis never mutates ``powers``); the
    ``_iid`` / ``_hash`` slots cache the interned id and the tuple hash, both
    derived from ``powers`` on first use.
    """

    __slots__ = ("powers", "_iid", "_hash", "_repr", "_degree")

    def __init__(self, powers: tuple[tuple[str, int], ...]):
        self.powers = powers

    # -- constructors -------------------------------------------------------

    @staticmethod
    def unit() -> "Monomial":
        """The empty product (degree 0)."""
        return _UNIT

    @staticmethod
    def of(var: str, exponent: int = 1) -> "Monomial":
        if exponent < 0:
            raise ValueError("monomial exponents must be nonnegative")
        if exponent == 0:
            return _UNIT
        return Monomial(((var, exponent),))

    @staticmethod
    def from_dict(powers: dict[str, int]) -> "Monomial":
        if any(e < 0 for e in powers.values()):
            raise ValueError("monomial exponents must be nonnegative")
        return Monomial(tuple(sorted((v, e) for v, e in powers.items() if e > 0)))

    # -- queries -------------------------------------------------------------

    @property
    def degree(self) -> int:
        # Cached: certificate emission takes the max target degree per
        # certificate, and interned instances are shared process-wide.
        try:
            return self._degree
        except AttributeError:
            d = sum(e for _, e in self.powers)
            self._degree = d
            return d

    def exponent_of(self, var: str) -> int:
        for v, e in self.powers:
            if v == var:
                return e
        return 0

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.powers)

    def is_unit(self) -> bool:
        return not self.powers

    @property
    def iid(self) -> int:
        """The interned id of this monomial (process-local, lazily assigned)."""
        try:
            return self._iid
        except AttributeError:
            iid = intern_id(self)
            self._iid = iid
            return iid

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not self.powers:
            return other
        if not other.powers:
            return self
        return _TABLE.monomials[product_id(self.iid, other.iid)]

    def without(self, var: str) -> "Monomial":
        """Drop ``var`` entirely from the power product."""
        return Monomial(tuple((v, e) for v, e in self.powers if v != var))

    def evaluate(self, valuation: dict[str, float]) -> float:
        result = 1.0
        for v, e in self.powers:
            result *= valuation[v] ** e
        return result

    # -- identity ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Monomial):
            return self.powers == other.powers
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self.powers)
            self._hash = h
            return h

    def __getstate__(self):
        # Only the canonical powers travel; ids and hashes are process-local.
        return self.powers

    def __setstate__(self, state):
        self.powers = state

    def __repr__(self) -> str:
        # Cached: certificate emission formats a note label per LP row, and
        # interned instances are shared process-wide.
        try:
            return self._repr
        except AttributeError:
            if not self.powers:
                text = "1"
            else:
                text = "*".join(
                    v if e == 1 else f"{v}^{e}" for v, e in self.powers
                )
            self._repr = text
            return text


_UNIT = Monomial(())


class _InternTable:
    """Process-wide monomial basis: powers -> id, id -> monomial, products.

    Reads are lock-free (a dict probe under the GIL); the lock only guards
    id assignment so the server's concurrent handler threads cannot race
    two ids for one canonical form.  The table grows monotonically and is
    never cleared: the substitution-plan memo tables are keyed by ids, so
    clearing would invalidate every cached plan in the process.
    """

    __slots__ = ("ids", "monomials", "products", "lock")

    def __init__(self) -> None:
        self.ids: dict[tuple[tuple[str, int], ...], int] = {}
        self.monomials: list[Monomial] = []
        self.products: dict[tuple[int, int], int] = {}
        self.lock = threading.Lock()


_TABLE = _InternTable()
if hasattr(os, "register_at_fork"):  # a forked child gets the lock released
    os.register_at_fork(after_in_child=_TABLE.lock._at_fork_reinit)


def intern_id(mono: Monomial) -> int:
    """The id of ``mono``'s canonical form, assigning a fresh one if new."""
    iid = _TABLE.ids.get(mono.powers)
    if iid is not None:
        return iid
    with _TABLE.lock:
        iid = _TABLE.ids.get(mono.powers)
        if iid is None:
            iid = len(_TABLE.monomials)
            _TABLE.monomials.append(mono)
            _TABLE.ids[mono.powers] = iid
    return iid


def monomial_of_id(iid: int) -> Monomial:
    """The canonical monomial instance interned under ``iid``."""
    return _TABLE.monomials[iid]


def product_id(a: int, b: int) -> int:
    """The id of the product of the monomials with ids ``a`` and ``b``.

    Memoized symmetrically: certificate emission and polynomial products
    multiply the same small basis over and over, so after warm-up this is a
    single dict probe.
    """
    key = (a, b) if a <= b else (b, a)
    pid = _TABLE.products.get(key)
    if pid is not None:
        return pid
    left = _TABLE.monomials[key[0]]
    merged = dict(left.powers)
    for v, e in _TABLE.monomials[key[1]].powers:
        merged[v] = merged.get(v, 0) + e
    pid = intern_id(Monomial(tuple(sorted(merged.items()))))
    _TABLE.products[key] = pid
    return pid


def intern_stats() -> dict[str, int]:
    """Sizes of the intern tables (diagnostics for ``--profile`` and tests)."""
    return {
        "monomials": len(_TABLE.monomials),
        "products": len(_TABLE.products),
    }


_ENUM_CACHE: dict[tuple, list[Monomial]] = {}


def monomials_up_to_degree(variables: list[str], degree: int) -> list[Monomial]:
    """All monomials over ``variables`` of total degree at most ``degree``.

    Ordered by (degree, lexicographic) so that template construction and
    reporting are deterministic.  Results are interned, so repeated template
    construction reuses the canonical instances (and their cached hashes);
    the enumeration itself is memoized per (variables, degree) — template
    allocation asks for the same basis for every component of every fresh
    annotation.  Callers receive a fresh list; the interned elements are
    shared.
    """
    variables = sorted(variables)
    key = (tuple(variables), degree)
    cached = _ENUM_CACHE.get(key)
    if cached is not None:
        return list(cached)
    result: list[Monomial] = [Monomial.unit()]
    for deg in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(variables, deg):
            powers: dict[str, int] = {}
            for v in combo:
                powers[v] = powers.get(v, 0) + 1
            mono = Monomial.from_dict(powers)
            result.append(_TABLE.monomials[mono.iid])
    if len(_ENUM_CACHE) >= 1024:
        _ENUM_CACHE.clear()
    _ENUM_CACHE[key] = result
    return list(result)
