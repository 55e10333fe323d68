"""Tests for linear assertions, entailment, contexts, and Handelman."""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.lang.parser import parse_condition, parse_expression, parse_program
from repro.lang.varinfo import analyze_program as static_info
from repro.lang.varinfo import integer_valued_vars
from repro.logic import entail
from repro.logic.context import Context
from repro.logic.handelman import certificate_products, emit_nonneg_certificate
from repro.logic.linear import LinExpr, LinIneq, cmp_to_ineqs, cond_to_ineqs
from repro.lp.affine import AffForm
from repro.lp.problem import LPInfeasibleError, LPProblem
from repro.poly.polynomial import Polynomial


def ineq(text: str) -> LinIneq:
    """Parse ``e1 <= e2``-style text into e2 - e1 >= 0."""
    (result,) = cond_to_ineqs(parse_condition(text))
    return result


class TestLinExpr:
    def test_from_polynomial(self):
        poly = parse_expression("2 * x - y + 3").to_polynomial()
        lin = LinExpr.from_polynomial(poly)
        assert lin.coeff("x") == 2.0
        assert lin.coeff("y") == -1.0
        assert lin.const == 3.0

    def test_from_polynomial_rejects_nonlinear(self):
        poly = parse_expression("x * x").to_polynomial()
        assert LinExpr.from_polynomial(poly) is None

    def test_substitute(self):
        lin = LinExpr.build({"x": 2.0, "y": 1.0}, 1.0)
        result = lin.substitute("x", LinExpr.build({"z": 1.0}, -1.0))
        assert result == LinExpr.build({"z": 2.0, "y": 1.0}, -1.0)

    def test_evaluate(self):
        lin = LinExpr.build({"x": 2.0}, 1.0)
        assert lin.evaluate({"x": 3.0}) == 7.0


class TestCondToIneqs:
    def test_le(self):
        (g,) = cmp_to_ineqs(parse_condition("x <= 3"))
        assert g.holds({"x": 3.0})
        assert not g.holds({"x": 3.5})

    def test_strict_relaxed_over_reals(self):
        (g,) = cmp_to_ineqs(parse_condition("x < 3"))
        assert g.holds({"x": 3.0})  # closure

    def test_strict_strengthened_over_integers(self):
        (g,) = cmp_to_ineqs(parse_condition("x < 3"), frozenset({"x"}))
        assert g.holds({"x": 2.0})
        assert not g.holds({"x": 2.5})
        (g,) = cmp_to_ineqs(parse_condition("x > 0"), frozenset({"x"}))
        assert not g.holds({"x": 0.5})
        assert g.holds({"x": 1.0})

    def test_mixed_integrality_not_strengthened(self):
        # n is not integer-valued, so no strengthening.
        (g,) = cmp_to_ineqs(parse_condition("x < n"), frozenset({"x"}))
        assert g.holds({"x": 3.0, "n": 3.0})

    def test_equality(self):
        ineqs = cmp_to_ineqs(parse_condition("x == y"))
        assert len(ineqs) == 2

    def test_disequality_empty(self):
        assert cmp_to_ineqs(parse_condition("x != y")) == []

    def test_conjunction(self):
        ineqs = cond_to_ineqs(parse_condition("x <= 1 and y <= 2"))
        assert len(ineqs) == 2

    def test_disjunction_contributes_nothing(self):
        assert cond_to_ineqs(parse_condition("x <= 1 or y <= 2")) == []

    def test_false_is_none(self):
        assert cond_to_ineqs(parse_condition("false")) is None

    def test_nonlinear_comparison_skipped(self):
        (result,) = [cmp_to_ineqs(parse_condition("x * x <= 1"))]
        assert result is None
        # ... but inside a conjunction it just drops out.
        assert cond_to_ineqs(parse_condition("x * x <= 1 and y <= 0")) is not None


class TestEntailment:
    def test_basic(self):
        gamma = (ineq("x >= 1"), ineq("y >= x"))
        assert entail.entails(gamma, ineq("y >= 1"))
        assert entail.entails(gamma, ineq("x + y >= 2"))
        assert not entail.entails(gamma, ineq("y >= 2"))

    def test_empty_context(self):
        assert entail.entails((), ineq("0 <= 1"))
        assert not entail.entails((), ineq("x >= 0"))

    def test_infeasible_context_entails_everything(self):
        gamma = (ineq("x >= 1"), ineq("x <= 0"))
        assert entail.entails(gamma, ineq("x >= 100"))
        assert not entail.is_feasible(gamma)

    def test_feasibility(self):
        assert entail.is_feasible((ineq("x >= 0"), ineq("x <= 10")))

    def test_unbounded_direction(self):
        assert not entail.entails((ineq("x >= 0"),), ineq("y >= 0"))


def _row(row) -> LinIneq:
    const, coeffs = row
    return LinIneq(
        LinExpr(tuple((v, float.fromhex(c)) for v, c in coeffs), float.fromhex(const))
    )


def _linprog_min(gamma, target):
    """``min target`` over ``gamma`` with linprog: (status, value)."""
    from scipy.optimize import linprog

    variables = sorted(set(target.variables()).union(*(g.variables() for g in gamma)))
    a_ub = np.array([[-g.expr.coeff(v) for v in variables] for g in gamma])
    b_ub = np.array([g.expr.const for g in gamma])
    result = linprog(
        [target.expr.coeff(v) for v in variables], A_ub=a_ub, b_ub=b_ub,
        bounds=[(None, None)] * len(variables), method="highs",
    )
    value = None if result.fun is None else result.fun + target.expr.const
    return result.status, value


RECORDED = json.loads(
    (Path(__file__).parent / "data" / "entail_queries.json").read_text()
)


class TestExactEntailment:
    """Entailment is decided exactly in rationals (Fourier–Motzkin, with an
    exact simplex above the row cap), never with a float tolerance."""

    @staticmethod
    def _queries():
        contexts = [tuple(_row(r) for r in ctx) for ctx in RECORDED["contexts"]]
        for program, ctx, target, answer in RECORDED["queries"]:
            yield program, contexts[ctx], _row(target), answer

    def test_recorded_queries_agree_with_linprog(self):
        for program, gamma, target, answer in self._queries():
            assert entail.entails(gamma, target) == answer, program

    def test_simplex_agrees_on_recorded_queries(self, monkeypatch):
        # A negative cap sends every query that reaches elimination to the
        # rational simplex.
        monkeypatch.setattr(entail, "FM_ROW_CAP", -1)
        for program, gamma, target, answer in self._queries():
            assert entail._entails_cached.__wrapped__(gamma, target) == answer, program

    def test_sample_covers_the_registry(self):
        from repro.programs import registry

        sampled = {program for program, *_ in RECORDED["queries"]}
        silent = set(RECORDED["no_queries"])
        assert sampled | silent >= set(registry.all_benchmarks())
        assert len(RECORDED["queries"]) >= 500
        answers = {answer for *_, answer in RECORDED["queries"]}
        assert answers == {True, False}

    def test_violation_under_the_float_slack_is_not_entailed(self):
        gamma = (ineq("x >= 1"), ineq("y >= x"))
        target = LinIneq(LinExpr.build({"y": 1.0}, -(1.0 + 1e-8)))
        status, value = _linprog_min(gamma, target)
        assert status == 0 and -1e-7 <= value < 0  # linprog's slack said yes
        assert not entail.entails(gamma, target)
        assert entail.entails(gamma, LinIneq(LinExpr.build({"y": 1.0}, -1.0)))

    def test_constant_target_has_no_slack(self):
        target = LinIneq(LinExpr.constant(-5e-10))  # the old slack was -1e-9
        assert not entail.entails((), target)
        assert not Context.top().entails(target)
        assert entail.entails((LinIneq(LinExpr.constant(-5e-10)),), target)
        assert entail.entails((), LinIneq(LinExpr.constant(0.0)))

    def test_strictness_is_tracked(self):
        # y >= 0 is tight at x = y = 0: Γ ∧ y < 0 is infeasible only because
        # the negated target row stays strict through elimination.
        gamma = (ineq("x >= 0"), ineq("y >= x"))
        assert entail.entails(gamma, ineq("y >= 0"))
        assert entail.entails(gamma, LinIneq(LinExpr.build({"x": 0.5, "y": 0.5})))
        assert not entail.entails(gamma, LinIneq(LinExpr.build({"y": 1.0}, -2.0**-60)))

    def test_dense_system_beyond_the_cap(self, monkeypatch):
        rng = random.Random(4)
        names = [f"x{i}" for i in range(6)]

        def pick():
            return float(rng.choice([-3, -2, -1, 1, 2, 3]))

        gamma = tuple(
            LinIneq(LinExpr.build({v: pick() for v in names}, float(rng.randint(0, 20))))
            for _ in range(12)
        )
        direction = {v: pick() for v in names}
        simplex_calls = []
        real_simplex = entail._simplex_entails

        def spy(*args):
            simplex_calls.append(args)
            return real_simplex(*args)

        monkeypatch.setattr(entail, "_simplex_entails", spy)
        # min direction.x over gamma is -406.198...: 406 is not entailed
        # (by 0.199), 407 is.
        for const, expected in ((406.0, False), (407.0, True)):
            target = LinIneq(LinExpr.build(direction, const))
            status, value = _linprog_min(gamma, target)
            assert status == 0 and (value >= 0) == expected
            simplex_calls.clear()
            monkeypatch.setattr(entail, "FM_ROW_CAP", 256)
            assert entail._entails_cached.__wrapped__(gamma, target) == expected
            assert simplex_calls, "Fourier-Motzkin finished under the cap"
            simplex_calls.clear()
            monkeypatch.setattr(entail, "FM_ROW_CAP", 10**9)
            assert entail._entails_cached.__wrapped__(gamma, target) == expected
            assert not simplex_calls

    def test_simplex_edge_cases(self, monkeypatch):
        monkeypatch.setattr(entail, "FM_ROW_CAP", -1)
        decide = entail._entails_cached.__wrapped__
        assert not decide((), ineq("x >= 0"))  # unbounded, no rows
        assert decide((ineq("x >= 1"), ineq("x <= 0")), ineq("x >= 100"))  # infeasible
        # Parallel rows tie in the phase-1 ratio test, leaving an artificial
        # basic at zero to pivot out.
        gamma = (ineq("x + y >= 2"), ineq("2 * x + 2 * y >= 4"), ineq("x + y <= 2"))
        assert decide(gamma, ineq("x + y >= 2"))
        assert not decide(gamma, ineq("x >= 0"))
        assert decide(gamma + (ineq("x >= 0"), ineq("y >= 0")), ineq("x <= 2"))


class TestContext:
    def test_assume_and_entails(self):
        ctx = Context.top().assume(parse_condition("x >= 1 and x <= 5"))
        assert ctx.entails(ineq("x >= 0"))
        assert ctx.entails_cond(parse_condition("x <= 6"))
        assert not ctx.entails_cond(parse_condition("x <= 4"))

    def test_assume_false_is_bottom(self):
        ctx = Context.top().assume(parse_condition("false"))
        assert ctx.bottom
        assert ctx.entails(ineq("x >= 100"))

    def test_invertible_assignment(self):
        ctx = Context.top().assume(parse_condition("x <= 5"))
        moved = ctx.assign("x", parse_expression("x + 2"))
        assert moved.entails(ineq("x <= 7"))
        assert not moved.entails(ineq("x <= 5"))

    def test_assignment_with_other_vars(self):
        ctx = Context.top().assume(parse_condition("x <= 5 and t <= 2"))
        moved = ctx.assign("x", parse_expression("x + t"))
        assert moved.entails(ineq("x <= 7"))

    def test_non_invertible_assignment(self):
        ctx = Context.top().assume(parse_condition("x <= 5 and y <= 1"))
        reset = ctx.assign("x", parse_expression("y + 1"))
        assert reset.entails(ineq("x <= 2"))
        assert reset.entails(ineq("y <= 1"))

    def test_nonlinear_assignment_havocs(self):
        ctx = Context.top().assume(parse_condition("x <= 5"))
        havoced = ctx.assign("x", parse_expression("x * x"))
        assert not havoced.entails(ineq("x <= 25"))

    def test_sample(self):
        ctx = Context.top().assume(parse_condition("t >= 100"))
        sampled = ctx.sample("t", (-1.0, 2.0))
        assert sampled.entails(ineq("t <= 2"))
        assert sampled.entails(ineq("t >= 0 - 1"))
        assert not sampled.entails(ineq("t >= 100"))

    def test_havoc(self):
        ctx = Context.top().assume(parse_condition("x <= 5 and y <= 1"))
        havoced = ctx.havoc({"x"})
        assert not havoced.entails(ineq("x <= 5"))
        assert havoced.entails(ineq("y <= 1"))

    def test_join_keeps_common_facts(self):
        a = Context.top().assume(parse_condition("x >= 0 and x <= 1"))
        b = Context.top().assume(parse_condition("x >= 0 and x <= 3"))
        joined = a.join(b)
        assert joined.entails(ineq("x >= 0"))
        assert joined.entails(ineq("x <= 3"))
        assert not joined.entails(ineq("x <= 1"))

    def test_join_with_bottom(self):
        a = Context.bot()
        b = Context.top().assume(parse_condition("x >= 0"))
        assert a.join(b) is b

    def test_meet(self):
        a = Context.top().assume(parse_condition("x >= 0"))
        b = Context.top().assume(parse_condition("x <= 1"))
        met = a.meet(b)
        assert met.entails(ineq("x >= 0"))
        assert met.entails(ineq("x <= 1"))

    def test_integer_strengthening_through_assume(self):
        ctx = Context.top(frozenset({"x"}))
        body = ctx.assume(parse_condition("x > 0"))
        assert body.entails(ineq("x >= 1"))


class TestHandelman:
    def test_products_include_unit(self):
        ctx = Context.top().assume(parse_condition("x >= 0"))
        products = certificate_products(ctx, 2)
        assert products[0] == Polynomial.constant(1.0)
        # 1, x, x^2
        assert len(products) == 3

    def test_certificate_success(self):
        # x^2 + 2x >= 0 under x >= 0 via x*x + 2*x.
        ctx = Context.top().assume(parse_condition("x >= 0"))
        lp = LPProblem()
        x = Polynomial.var("x")
        emit_nonneg_certificate(lp, ctx, x * x + 2.0 * x, 2)
        lp.solve()  # feasible

    def test_certificate_failure(self):
        # -x - 1 >= 0 is false under x >= 0.
        ctx = Context.top().assume(parse_condition("x >= 0"))
        lp = LPProblem()
        with pytest.raises((LPInfeasibleError, Exception)):
            emit_nonneg_certificate(lp, ctx, -Polynomial.var("x") - 1.0, 1)
            lp.solve()

    def test_certificate_with_template_coefficient(self):
        # (u - 2) * x >= 0 under x >= 0 forces u >= 2.
        ctx = Context.top().assume(parse_condition("x >= 0"))
        lp = LPProblem()
        u = lp.fresh("u")
        poly = Polynomial.var("x").map_coefficients(
            lambda c: AffForm.of_var(u, float(c)) - 2.0
        )
        emit_nonneg_certificate(lp, ctx, poly, 1)
        solution = lp.solve(AffForm.of_var(u))
        assert solution.value_of(u) >= 2.0 - 1e-6

    def test_zero_poly_no_constraints(self):
        lp = LPProblem()
        emit_nonneg_certificate(lp, Context.top(), Polynomial.zero(), 3)
        assert lp.num_constraints == 0

    def test_negative_constant_rejected(self):
        lp = LPProblem()
        with pytest.raises(ValueError):
            emit_nonneg_certificate(lp, Context.top(), Polynomial.constant(-1.0), 1)

    def test_bottom_context_vacuous(self):
        lp = LPProblem()
        emit_nonneg_certificate(
            lp, Context.bot(), -Polynomial.var("x") - 1.0, 1
        )
        assert lp.num_constraints == 0

    def test_paper_else_branch_certificate(self):
        # From section 3.4: 2(d-x)+4 >= 0 under {x >= d, x <= d+2}
        # via 2*(d - x + 2).
        ctx = Context.top().assume(parse_condition("x >= d and x <= d + 2"))
        lp = LPProblem()
        d, x = Polynomial.var("d"), Polynomial.var("x")
        emit_nonneg_certificate(lp, ctx, 2.0 * (d - x) + 4.0, 2)
        lp.solve()


class TestIntegerVars:
    def test_integer_fixpoint(self):
        program = parse_program(
            """
            func main() begin
              x := 0;
              x := x + 1;
              t ~ discrete(-1: 0.5, 1: 0.5);
              y := x + t;
              z ~ uniform(0, 1);
              w := z + 1
            end
            """
        )
        ints = integer_valued_vars(program)
        assert {"x", "t", "y"} <= ints
        assert "z" not in ints
        assert "w" not in ints

    def test_contamination_via_cycle(self):
        program = parse_program(
            """
            func main() begin
              z ~ uniform(0, 1);
              x := z;
              y := x + 1;
              x := y
            end
            """
        )
        ints = integer_valued_vars(program)
        assert "x" not in ints and "y" not in ints

    def test_declared_parameter(self):
        program = parse_program(
            "func main() int(n) begin x := n end"
        )
        info = static_info(program)
        assert "n" in info.integer_vars
        assert "x" in info.integer_vars

    def test_declared_written_var_still_checked(self):
        program = parse_program(
            "func main() int(x) begin z ~ uniform(0, 1); x := z end"
        )
        info = static_info(program)
        assert "x" not in info.integer_vars

    def test_fractional_constant_not_integer(self):
        program = parse_program("func main() begin x := 0.5 end")
        assert "x" not in integer_valued_vars(program)
