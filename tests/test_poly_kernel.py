"""The vectorized symbolic kernel against references built from primitives.

Every fast path of constraint derivation — substitution and expectation
plans, the fused ⊕ / Q-Tick / Q-Prob accumulations, cached certificate
bases — must produce exactly what the plain :class:`Polynomial` and
:class:`MomentAnnotation` operations produce when composed the way the
paper's rules state them (section 3.3, eq. 7; section 3.4).  "Exactly"
means the same coefficient values, the same monomial key order and the same
affine-form term order: key and term order decide LP row and column order,
so anything less would move the emitted LP.

Three layers of evidence, from unit to end-to-end:

1. ``TestPlans``: seeded random polynomials (dyadic coefficients, so float
   arithmetic is exact) through each plan and fused operation, compared
   with its reference.
2. ``TestEmissionParity``: certificate emission compared with a reference
   emitter assembled from :func:`certificate_products`: λ names, row order,
   term order and coefficients.
3. ``TestAnalyzerParity``: whole derivations, run twice in one process —
   once as in production, once with the five annotation transfers swapped
   for the references — must emit byte-identical LP systems.

No digest is recorded: :meth:`Discrete.moment` sums floats with ``sum()``,
whose rounding changed in Python 3.12, so the references are recomputed in
every run instead.
"""

from __future__ import annotations

import functools
from collections import Counter

import numpy as np
import pytest

from repro import AnalysisOptions, AnalysisPipeline
from repro.analysis.annotations import MomentAnnotation, PolyInterval
from repro.logic.handelman import (
    certificate_basis,
    certificate_cache_stats,
    certificate_products,
    clear_certificate_caches,
    emit_nonneg_certificate,
)
from repro.logic.context import Context
from repro.logic.linear import LinExpr, LinIneq
from repro.lp.affine import AffForm
from repro.lp.backends import ScipyDenseBackend
from repro.lp.backends.base import EQ, GE
from repro.lp.core import LPInfeasibleError
from repro.lp.problem import LPProblem
from repro.poly.kernel import (
    ExpectationPlan,
    clear_plan_caches,
    substitution_plan,
)
from repro.poly.monomial import Monomial, intern_id, monomial_of_id, product_id
from repro.poly.polynomial import Polynomial
from repro.programs.fuzz import generate_corpus
from repro.programs.synthetic import coupon_chain, rdwalk_chain
from repro.rings.moment import binomial

VARS = ("x", "y", "d")


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_certificate_caches()
    clear_plan_caches()
    yield
    clear_certificate_caches()
    clear_plan_caches()


def random_poly(rng: np.random.Generator, max_terms: int = 6, max_exp: int = 3) -> Polynomial:
    """A random concrete polynomial with dyadic coefficients."""
    terms = {}
    for _ in range(int(rng.integers(0, max_terms + 1))):
        powers = {
            v: int(rng.integers(0, max_exp + 1))
            for v in VARS
            if rng.random() < 0.6
        }
        mono = Monomial.from_dict(powers)
        coeff = int(rng.integers(-64, 65)) / 16.0
        if coeff:
            terms[mono] = terms.get(mono, 0.0) + coeff
    return Polynomial(terms)


def random_template(rng: np.random.Generator, lp: LPProblem) -> Polynomial:
    """A random template polynomial: AffForm coefficients over fresh vars."""
    poly = random_poly(rng)
    coeffs = {}
    for i, (mono, c) in enumerate(poly.coeffs.items()):
        if i % 2 == 0:
            coeffs[mono] = AffForm.of_var(lp.fresh(f"t{i}"), c)
        else:
            coeffs[mono] = c
    return Polynomial(coeffs)


def random_annotation(rng: np.random.Generator, lp: LPProblem) -> MomentAnnotation:
    """A random second-moment template annotation."""
    return MomentAnnotation(
        [
            PolyInterval(random_template(rng, lp), random_template(rng, lp))
            for _ in range(3)
        ]
    )


def layout(poly: Polynomial):
    """Everything LP-visible about ``poly``, order included: per term (in
    key order) the monomial, the coefficient type, and the coefficient's
    value with affine-form terms in insertion order."""
    return [
        (
            m.powers,
            type(c).__name__,
            (list(c.terms.items()), c.const) if isinstance(c, AffForm) else c,
        )
        for m, c in poly.coeffs.items()
    ]


def annotation_layout(ann: MomentAnnotation):
    return [(layout(iv.lo), layout(iv.hi)) for iv in ann.intervals]


# ---------------------------------------------------------------------------
# References: the rules composed from Polynomial / MomentAnnotation primitives
# ---------------------------------------------------------------------------


def ref_substitute(poly: Polynomial, var: str, repl: Polynomial) -> Polynomial:
    """``poly[repl / var]`` (rule Q-Assign), expanded term by term."""
    return Polynomial.from_terms(
        (m.without(var) * s, c * sc)
        for m, c in poly.coeffs.items()
        for s, sc in (repl ** m.exponent_of(var)).coeffs.items()
    )


def ref_expect(poly: Polynomial, var: str, moment) -> Polynomial:
    """Each power ``var^k`` replaced by ``moment(k)`` (rule Q-Sample)."""

    def term(m, c):
        e = m.exponent_of(var)
        return (m.without(var), c * moment(e)) if e else (m, c)

    return Polynomial.from_terms(term(m, c) for m, c in poly.coeffs.items())


def ref_prefix_cost(ann: MomentAnnotation, cost: float) -> MomentAnnotation:
    """Rule Q-Tick: eq. (7) with the point moment vector of ``cost``, as
    chained :meth:`PolyInterval.scale` and ``+``."""
    m = ann.degree
    powers = [1.0]
    for _ in range(m):
        powers.append(powers[-1] * cost)
    intervals = []
    for k in range(m + 1):
        acc = PolyInterval.zero()
        for i in range(k + 1):
            acc = acc + ann.intervals[k - i].scale(binomial(k, i) * powers[i])
        intervals.append(acc)
    return MomentAnnotation(intervals)


def ref_prob_mix(a: MomentAnnotation, p: float, b: MomentAnnotation) -> MomentAnnotation:
    """Rule Q-Prob: ``a.scale(p) ⊕ b.scale(1 - p)``."""
    return a.scale(p).oplus(b.scale(1 - p))


def ref_oplus_all(annotations: list[MomentAnnotation]) -> MomentAnnotation:
    """The left fold of :meth:`MomentAnnotation.oplus`."""
    return functools.reduce(MomentAnnotation.oplus, annotations)


def ref_ann_substitute(ann: MomentAnnotation, var: str, poly: Polynomial) -> MomentAnnotation:
    return MomentAnnotation(
        [iv.map_ends(lambda e: ref_substitute(e, var, poly)) for iv in ann.intervals]
    )


def ref_ann_expect(ann: MomentAnnotation, var: str, dist) -> MomentAnnotation:
    return MomentAnnotation(
        [iv.map_ends(lambda e: ref_expect(e, var, dist.moment)) for iv in ann.intervals]
    )


#: The five :class:`MomentAnnotation` transfers and their references.
REFERENCE_TRANSFERS = {
    "oplus_all": ref_oplus_all,
    "prefix_cost": ref_prefix_cost,
    "prob_mix": ref_prob_mix,
    "substitute": ref_ann_substitute,
    "expect": ref_ann_expect,
}


# ---------------------------------------------------------------------------
# Interned monomials
# ---------------------------------------------------------------------------


class TestInternTable:
    def test_product_table_matches_structural_product(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = Monomial.from_dict(
                {v: int(rng.integers(0, 4)) for v in VARS if rng.random() < 0.7}
            )
            b = Monomial.from_dict(
                {v: int(rng.integers(0, 4)) for v in VARS if rng.random() < 0.7}
            )
            prod = a * b
            expected = {v: a.exponent_of(v) + b.exponent_of(v) for v in VARS}
            assert prod == Monomial.from_dict(expected)
            # Commutative, and memoized to the same interned instance.
            assert (b * a) is prod or (b * a) == prod

    def test_interned_ids_are_stable_and_roundtrip(self):
        m = Monomial.from_dict({"x": 2, "y": 1})
        assert monomial_of_id(m.iid) == m
        assert intern_id(Monomial.from_dict({"x": 2, "y": 1})) == m.iid
        assert product_id(m.iid, m.iid) == Monomial.from_dict({"x": 4, "y": 2}).iid

    def test_unit_product_identity(self):
        m = Monomial.of("x", 3)
        assert m * Monomial.unit() is m
        assert Monomial.unit() * m is m

    def test_pickle_drops_process_local_state(self):
        import pickle

        m = Monomial.from_dict({"x": 2})
        _ = m.iid, hash(m), repr(m), m.degree  # populate every cache
        clone = pickle.loads(pickle.dumps(m))
        assert clone == m
        assert not hasattr(clone, "_iid")  # re-derived lazily, not shipped
        assert clone.iid == m.iid  # same process, same table

    def test_unit_monomial_pickle_roundtrip(self):
        import pickle

        clone = pickle.loads(pickle.dumps(Monomial.unit()))
        assert clone == Monomial.unit()
        assert clone.is_unit()

    def test_from_dict_rejects_negative_exponents(self):
        # Regression: the validation used to run *after* the ``e > 0``
        # filter, so negative exponents were silently dropped instead of
        # rejected.
        with pytest.raises(ValueError):
            Monomial.from_dict({"x": -1})
        with pytest.raises(ValueError):
            Monomial.from_dict({"x": 2, "y": -3})


# ---------------------------------------------------------------------------
# Plans and fused operations: identical values AND identical order
# ---------------------------------------------------------------------------


class TestPlans:
    def test_substitution_plan_matches_legacy_exactly(self):
        """Concrete polynomials: the plan vs the term-by-term expansion."""
        rng = np.random.default_rng(37)
        for _ in range(120):
            p, repl = random_poly(rng), random_poly(rng, max_terms=3, max_exp=2)
            var = VARS[int(rng.integers(0, len(VARS)))]
            clear_plan_caches()
            got = substitution_plan(var, repl).apply(p)
            assert layout(got) == layout(ref_substitute(p, var, repl))
            assert layout(p.substitute(var, repl)) == layout(got)

    def test_substitution_plan_on_templates(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            lp = LPProblem(backend=ScipyDenseBackend())
            p = random_template(rng, lp)
            repl = random_poly(rng, max_terms=3, max_exp=2)
            var = VARS[int(rng.integers(0, len(VARS)))]
            clear_plan_caches()
            got = substitution_plan(var, repl).apply(p)
            assert layout(got) == layout(ref_substitute(p, var, repl))

    def test_expectation_plan_matches_legacy_exactly(self):
        """Templates: the plan vs the term-by-term moment replacement."""
        rng = np.random.default_rng(43)
        moments = {k: (2.0 ** -k) * 3 for k in range(1, 16)}
        for _ in range(60):
            lp = LPProblem(backend=ScipyDenseBackend())
            p = random_template(rng, lp)
            var = VARS[int(rng.integers(0, len(VARS)))]
            got = ExpectationPlan(var, moments.__getitem__).apply(p)
            assert layout(got) == layout(ref_expect(p, var, moments.__getitem__))

    def test_plans_are_memoized(self):
        repl = Polynomial({Monomial.of("x"): 1.0, Monomial.unit(): -1.0})
        assert substitution_plan("x", repl) is substitution_plan("x", repl)

    def test_plan_memo_respects_replacement_term_order(self):
        """Equal replacements with differently ordered terms expand their
        powers in different orders, so they must not share a plan."""
        x, one = Monomial.of("x"), Monomial.unit()
        p = Polynomial({Monomial.from_dict({"x": 2, "y": 1}): 1.0})
        for repl in (
            Polynomial({x: 1.0, one: 1.0}),
            Polynomial({one: 1.0, x: 1.0}),
        ):
            got = substitution_plan("x", repl).apply(p)
            assert layout(got) == layout(ref_substitute(p, "x", repl))

    def test_cancelled_keys_reinsert_at_end(self):
        """A coefficient that cancels is deleted, so a later contribution
        re-inserts its monomial last — for floats and templates alike."""
        x, y, z = (Monomial.of(v) for v in "xyz")
        y2 = Monomial.of("y", 2)
        lp = LPProblem(backend=ScipyDenseBackend())
        t, w = (AffForm.of_var(lp.fresh(n)) for n in ("t", "w"))
        # y -> x + 1: the y term cancels the x term, y^2 brings x back.
        concrete = Polynomial.from_terms([(x, 1.0), (y, -1.0), (z, 2.0), (y2, 3.0)])
        template = Polynomial.from_terms([(x, t), (y, -t), (z, 2.0), (y2, w)])
        repl = Polynomial.var("x") + 1.0
        for p in (concrete, template):
            got = substitution_plan("y", repl).apply(p)
            assert layout(got) == layout(ref_substitute(p, "y", repl))
            assert list(got.coeffs) == [Monomial.unit(), z, Monomial.of("x", 2), x]

    def test_annotation_ops_match_with_kernel_off(self):
        """prefix_cost / prob_mix / oplus_all vs their chained references."""
        rng = np.random.default_rng(47)
        for _ in range(30):
            lp = LPProblem(backend=ScipyDenseBackend())
            a, b = random_annotation(rng, lp), random_annotation(rng, lp)
            cost = int(rng.integers(-8, 9)) / 4.0
            prob = int(rng.integers(0, 17)) / 16.0
            pairs = (
                (a.prefix_cost(cost), ref_prefix_cost(a, cost)),
                (a.prob_mix(prob, b), ref_prob_mix(a, prob, b)),
                (
                    MomentAnnotation.oplus_all([a, b, a]),
                    ref_oplus_all([a, b, a]),
                ),
            )
            for fused, reference in pairs:
                assert annotation_layout(fused) == annotation_layout(reference)


# ---------------------------------------------------------------------------
# Certificate emission parity
# ---------------------------------------------------------------------------


def _ctx(*pairs) -> Context:
    return Context(tuple(LinIneq(LinExpr.build(dict(c), k)) for c, k in pairs))


def _lp_fingerprint(lp: LPProblem):
    # The dense backend stores (terms dict, const) per row; listing the
    # items preserves insertion order, so this captures the exact layout the
    # solver would see.
    rows = lp.backend._rows
    return (
        [v.name for v in lp.pool.variables],
        sorted(lp.nonneg_indices),
        list(lp.cert_spans),
        {
            kind: [(list(terms.items()), const) for terms, const in rows[kind]]
            for kind in (EQ, GE)
        },
        dict(lp._eq_notes),
    )


def reference_emission(
    lp: LPProblem, ctx: Context, poly: Polynomial, degree: int, label: str, minus: Polynomial
) -> None:
    """``poly - minus == Σ_j λ_j prod_j`` with fresh ``λ_j >= 0``, one
    product at a time over :func:`certificate_products`."""
    diff = poly - minus
    if diff.is_zero():
        return
    if diff.is_constant() and diff.is_concrete():
        if diff.constant_value() < -1e-9:
            raise ValueError(
                f"constant certificate target {diff.constant_value()!r} is negative"
            )
        return
    products = certificate_products(ctx, max(degree, diff.degree()))
    lams = [lp.fresh_nonneg(f"{label}.λ{j}") for j in range(len(products))]
    lp.note_cert_span(lams[0].index, len(products))
    rows = {
        mono: (dict(c.terms), c.const) if isinstance(c, AffForm) else ({}, c)
        for mono, c in diff.coeffs.items()
    }
    for lam, prod in zip(lams, products):
        for mono, c in prod.coeffs.items():
            rows.setdefault(mono, ({}, 0.0))[0][lam.index] = -float(c)
    for mono, (terms, const) in rows.items():
        lp.add_eq(AffForm(terms, const), note=f"{label}[{mono!r}]")


class TestEmissionParity:
    def test_emission_is_byte_identical(self):
        ctx = _ctx(({"x": 1.0}, 0.0), ({"x": -1.0, "d": 1.0}, 2.0))
        for trial in range(25):
            fingerprints = []
            for emit in (emit_nonneg_certificate, reference_emission):
                clear_certificate_caches()
                lp = LPProblem(backend=ScipyDenseBackend())
                template_rng = np.random.default_rng(1000 + trial)
                poly = random_template(template_rng, lp)
                minus = random_template(template_rng, lp)
                error = None
                try:
                    emit(lp, ctx, poly, 2, label=f"t{trial}", minus=minus)
                except LPInfeasibleError as err:
                    # A trivially contradictory row (all-constant target)
                    # must surface identically — same message, same
                    # partially emitted system — on both paths.
                    error = str(err)
                fingerprints.append((error, _lp_fingerprint(lp)))
            assert fingerprints[0] == fingerprints[1], f"trial {trial}"

    def test_basis_matches_products(self):
        ctx = _ctx(({"x": 1.0}, 0.0), ({"y": 1.0}, 1.0))
        basis = certificate_basis(ctx, 3)
        products = certificate_products(ctx, 3)
        assert basis.n_products == len(products)
        rebuilt: dict = {}
        for mono, rows, negs in basis.columns:
            for j, neg in zip(rows.tolist(), negs):
                rebuilt.setdefault(j, {})[mono] = -neg
        for j, prod in enumerate(products):
            assert rebuilt.get(j, {}) == dict(prod.coeffs)

    def test_basis_is_cached_per_context_and_degree(self):
        ctx = _ctx(({"x": 1.0}, 0.0))
        b1 = certificate_basis(ctx, 2)
        assert certificate_basis(ctx, 2) is b1
        assert certificate_basis(ctx, 3) is not b1
        # A structurally equal context hits the same entry.
        assert certificate_basis(_ctx(({"x": 1.0}, 0.0)), 2) is b1
        assert certificate_cache_stats()["bases"] == 2


# ---------------------------------------------------------------------------
# End-to-end: derived LP systems are byte-identical
# ---------------------------------------------------------------------------


def _system_fingerprint(program, options: AnalysisOptions):
    """The derived LP byte for byte: variable names, the nonneg set, and
    the CSR arrays (which keep per-row term order) of the EQ and GE rows."""
    clear_certificate_caches()
    clear_plan_caches()
    lp = AnalysisPipeline(program).constraint_system(options).lp
    return (
        [v.name for v in lp.pool.variables],
        sorted(lp.nonneg_indices),
        list(lp.cert_spans),
        [
            tuple(array.tobytes() for array in lp.backend.row_arrays(kind))
            for kind in (EQ, GE)
        ],
    )


@pytest.fixture
def derive_both(monkeypatch):
    """``derive(program, options)`` -> (production, reference) fingerprints.

    ``calls`` counts the reference transfers actually exercised, so a
    parity check cannot pass without running them.
    """
    calls: Counter = Counter()

    def counted(name, ref):
        def wrapper(*args):
            calls[name] += 1
            return ref(*args)

        return staticmethod(wrapper) if name == "oplus_all" else wrapper

    def derive(program, options):
        production = _system_fingerprint(program, options)
        with monkeypatch.context() as patch:
            for name, ref in REFERENCE_TRANSFERS.items():
                patch.setattr(MomentAnnotation, name, counted(name, ref))
            reference = _system_fingerprint(program, options)
        return production, reference

    derive.calls = calls
    return derive


class TestAnalyzerParity:
    """Byte-identical systems, hence identical bounds: solving is
    deterministic given the system."""

    def test_fuzz_corpus_bounds_identical(self, derive_both):
        for case in generate_corpus(8, seed=0):
            production, reference = derive_both(
                case.parse(), AnalysisOptions(moment_degree=2)
            )
            assert production == reference, f"fuzz seed {case.seed}"

    def test_registry_programs_bounds_identical(self, derive_both):
        from repro.programs import registry

        benchmarks = registry.all_benchmarks()
        assert len(benchmarks) >= 42
        for name, bench in sorted(benchmarks.items()):
            options = AnalysisOptions(
                moment_degree=bench.moment_degree,
                template_degree=bench.template_degree,
                degree_cap=bench.degree_cap,
            )
            production, reference = derive_both(registry.parsed(name), options)
            assert production == reference, f"registry {name!r}"
        assert set(derive_both.calls) == set(REFERENCE_TRANSFERS)

    def test_synthetic_m4_bounds_identical(self, derive_both):
        for program in (coupon_chain(3), rdwalk_chain(1)):
            production, reference = derive_both(
                program, AnalysisOptions(moment_degree=4)
            )
            assert production == reference
