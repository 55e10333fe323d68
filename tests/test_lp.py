"""Tests for LP assembly and solving."""

import pytest

from repro.lp.affine import AffForm
from repro.lp.problem import LPError, LPInfeasibleError, LPProblem


class TestLPProblem:
    def test_simple_minimization(self):
        lp = LPProblem()
        x = lp.fresh("x")
        # x >= 3  ->  x - 3 >= 0
        lp.add_ge(AffForm.of_var(x) - 3.0)
        solution = lp.solve(AffForm.of_var(x))
        assert solution.value_of(x) == pytest.approx(3.0)
        assert solution.objective == pytest.approx(3.0)

    def test_maximization(self):
        lp = LPProblem()
        x = lp.fresh("x")
        lp.add_le(AffForm.of_var(x) - 5.0)
        # Maximize x by minimizing -x.
        solution = lp.solve(AffForm.of_var(x) * -1.0)
        assert solution.objective == pytest.approx(-5.0)

    def test_equalities(self):
        lp = LPProblem()
        x, y = lp.fresh("x"), lp.fresh("y")
        lp.add_eq(AffForm.of_var(x) + AffForm.of_var(y) - 4.0)
        lp.add_eq(AffForm.of_var(x) - AffForm.of_var(y))
        solution = lp.solve(AffForm.of_var(x))
        assert solution.value_of(x) == pytest.approx(2.0)
        assert solution.value_of(y) == pytest.approx(2.0)

    def test_nonneg_variables(self):
        lp = LPProblem()
        lam = lp.fresh_nonneg("lam")
        solution = lp.solve(AffForm.of_var(lam))
        assert solution.value_of(lam) == pytest.approx(0.0)

    def test_infeasible_system(self):
        lp = LPProblem()
        x = lp.fresh("x")
        lp.add_ge(AffForm.of_var(x) - 3.0)
        lp.add_le(AffForm.of_var(x) - 2.0)
        with pytest.raises(LPInfeasibleError):
            lp.solve(AffForm.of_var(x))

    def test_constant_contradiction_caught_at_emission(self):
        lp = LPProblem()
        with pytest.raises(LPInfeasibleError):
            lp.add_eq(AffForm.constant(1.0))
        with pytest.raises(LPInfeasibleError):
            lp.add_ge(AffForm.constant(-1.0))

    def test_trivial_constant_constraints_dropped(self):
        lp = LPProblem()
        lp.add_eq(AffForm.constant(0.0))
        lp.add_ge(AffForm.constant(5.0))
        assert lp.num_constraints == 0

    def test_objective_constant_term(self):
        lp = LPProblem()
        x = lp.fresh("x")
        lp.add_ge(AffForm.of_var(x) - 1.0)
        solution = lp.solve(AffForm.of_var(x) + 10.0)
        assert solution.objective == pytest.approx(11.0)

    def test_boxing_prevents_unboundedness(self):
        lp = LPProblem()
        x = lp.fresh("x")
        solution = lp.solve(AffForm.of_var(x), bound=100.0)
        assert solution.value_of(x) == pytest.approx(-100.0)

    def test_empty_problem(self):
        lp = LPProblem()
        solution = lp.solve()
        assert solution.objective == 0.0

    def test_solution_assignment_roundtrip(self):
        lp = LPProblem()
        x, y = lp.fresh("x"), lp.fresh("y")
        lp.add_eq(AffForm.of_var(x) - 7.0)
        lp.add_eq(AffForm.of_var(y) - 8.0)
        solution = lp.solve(AffForm.of_var(x) + AffForm.of_var(y))
        form = AffForm.of_var(x, 2.0) + AffForm.of_var(y, 3.0)
        assert form.evaluate(solution.assignment()) == pytest.approx(38.0)
