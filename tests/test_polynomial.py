"""Unit and property tests for monomials and sparse polynomials."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp.affine import AffForm, VarPool
from repro.poly.kernel import ExpectationPlan
from repro.poly.monomial import Monomial, monomials_up_to_degree
from repro.poly.polynomial import Polynomial


class TestMonomial:
    def test_unit_degree_zero(self):
        assert Monomial.unit().degree == 0
        assert Monomial.unit().is_unit()

    def test_of_variable(self):
        m = Monomial.of("x", 3)
        assert m.degree == 3
        assert m.exponent_of("x") == 3
        assert m.exponent_of("y") == 0

    def test_of_zero_exponent_is_unit(self):
        assert Monomial.of("x", 0) == Monomial.unit()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial.of("x", -1)

    def test_from_dict_negative_exponent_rejected(self):
        # Regression: validation used to run after the ``e > 0`` filter, so
        # ``from_dict({'x': -1})`` silently returned the unit monomial.
        with pytest.raises(ValueError):
            Monomial.from_dict({"x": -1})
        with pytest.raises(ValueError):
            Monomial.from_dict({"x": 1, "y": -2})
        assert Monomial.from_dict({"x": 1, "y": 0}) == Monomial.of("x")

    def test_multiplication(self):
        m = Monomial.of("x", 2) * Monomial.of("y") * Monomial.of("x")
        assert m == Monomial.from_dict({"x": 3, "y": 1})
        assert m.degree == 4

    def test_canonical_ordering(self):
        a = Monomial.from_dict({"b": 1, "a": 2})
        b = Monomial.from_dict({"a": 2, "b": 1})
        assert a == b
        assert hash(a) == hash(b)

    def test_without(self):
        m = Monomial.from_dict({"x": 2, "y": 1})
        assert m.without("x") == Monomial.of("y")
        assert m.without("z") == m

    def test_evaluate(self):
        m = Monomial.from_dict({"x": 2, "y": 1})
        assert m.evaluate({"x": 3.0, "y": 5.0}) == 45.0

    def test_enumeration_count(self):
        # C(n+d, d) monomials of degree <= d over n variables.
        monos = monomials_up_to_degree(["x", "y"], 3)
        assert len(monos) == math.comb(2 + 3, 3)
        assert monos[0] == Monomial.unit()
        assert all(m.degree <= 3 for m in monos)

    def test_enumeration_deterministic(self):
        a = monomials_up_to_degree(["y", "x"], 2)
        b = monomials_up_to_degree(["x", "y"], 2)
        assert a == b


def _poly_from(coeffs):
    return Polynomial(
        {Monomial.from_dict(dict(m)): c for m, c in coeffs.items()}
    )


small_polys = st.dictionaries(
    st.tuples(
        st.sampled_from([(), (("x", 1),), (("y", 1),), (("x", 2),), (("x", 1), ("y", 1))])
    ).map(lambda t: t[0]),
    st.integers(-5, 5).map(float),
    max_size=4,
).map(_poly_from)

valuations = st.fixed_dictionaries(
    {"x": st.integers(-3, 3).map(float), "y": st.integers(-3, 3).map(float)}
)


class TestPolynomial:
    def test_constant_and_var(self):
        p = Polynomial.var("x") + Polynomial.constant(2.0)
        assert p.degree() == 1
        assert p.evaluate({"x": 3.0}) == 5.0

    def test_zero_coefficients_dropped(self):
        p = Polynomial.var("x") - Polynomial.var("x")
        assert p.is_zero()
        assert p.coeffs == {}

    def test_multiplication(self):
        x, y = Polynomial.var("x"), Polynomial.var("y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y

    def test_power(self):
        x = Polynomial.var("x")
        p = (x + 1.0) ** 2
        assert p == x * x + 2.0 * x + 1.0
        assert (x**0) == Polynomial.constant(1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.var("x") ** (-1)

    def test_substitute_linear(self):
        x, t = Polynomial.var("x"), Polynomial.var("t")
        p = x * x + 3.0 * x
        q = p.substitute("x", x + t)
        assert q == (x + t) * (x + t) + 3.0 * (x + t)

    def test_substitute_absent_variable(self):
        p = Polynomial.var("x")
        assert p.substitute("z", Polynomial.constant(0.0)) == p

    def test_expect_powers(self):
        # E[x^2 y + 2x + 5] with E[x] = 1/2, E[x^2] = 1.
        moments = {0: 1.0, 1: 0.5, 2: 1.0}
        x, y = Polynomial.var("x"), Polynomial.var("y")
        p = x * x * y + 2.0 * x + 5.0
        q = ExpectationPlan("x", lambda k: moments[k]).apply(p)
        assert q == y + 6.0

    def test_substitute_template_replacement_rejected(self):
        # A template replacement would leave the LP fragment once raised to
        # a power; substitution plans accept concrete replacements only.
        pool = VarPool()
        u = AffForm.of_var(pool.fresh("u"))
        p = Polynomial.var("x") * Polynomial.var("x")
        with pytest.raises(TypeError):
            p.substitute("x", Polynomial({Monomial.of("y"): u}))

    def test_scale(self):
        p = Polynomial.var("x") + 1.0
        assert p.scale(0.0).is_zero()
        assert p.scale(2.0) == 2.0 * Polynomial.var("x") + 2.0

    def test_template_coefficients(self):
        pool = VarPool()
        u = AffForm.of_var(pool.fresh("u"))
        p = Polynomial({Monomial.of("x"): u}) + Polynomial.var("x")
        coeff = p.coefficient(Monomial.of("x"))
        assert isinstance(coeff, AffForm)
        assert coeff == u + 1.0
        assert not p.is_concrete()

    def test_template_times_template_rejected(self):
        pool = VarPool()
        u = Polynomial({Monomial.of("x"): AffForm.of_var(pool.fresh("u"))})
        with pytest.raises(TypeError):
            u * u

    def test_template_evaluate_gives_affform(self):
        pool = VarPool()
        v = pool.fresh("v")
        p = Polynomial({Monomial.of("x"): AffForm.of_var(v)})
        result = p.evaluate({"x": 3.0})
        assert isinstance(result, AffForm)
        assert result.terms == {v.index: 3.0}

    @given(small_polys, small_polys, valuations)
    @settings(max_examples=60, deadline=None)
    def test_addition_agrees_with_evaluation(self, p, q, env):
        assert (p + q).evaluate(env) == pytest.approx(
            p.evaluate(env) + q.evaluate(env)
        )

    @given(small_polys, small_polys, valuations)
    @settings(max_examples=60, deadline=None)
    def test_multiplication_agrees_with_evaluation(self, p, q, env):
        assert (p * q).evaluate(env) == pytest.approx(
            p.evaluate(env) * q.evaluate(env)
        )

    @given(small_polys, small_polys)
    @settings(max_examples=40, deadline=None)
    def test_ring_laws(self, p, q):
        assert p + q == q + p
        assert p * q == q * p
        assert p + Polynomial.zero() == p
        assert p * Polynomial.constant(1.0) == p
        assert (p - p).is_zero()

    @given(small_polys, small_polys, valuations)
    @settings(max_examples=60, deadline=None)
    def test_substitution_agrees_with_evaluation(self, p, q, env):
        substituted = p.substitute("x", q)
        inner = q.evaluate(env)
        assert substituted.evaluate(env) == pytest.approx(
            p.evaluate({"x": inner, "y": env["y"]})
        )
