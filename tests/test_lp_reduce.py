"""The structure-exploiting LP reduction layer (:mod:`repro.lp.reduce`).

Three levels of coverage:

* presolve unit tests on hand-built LPs — singleton-equality fixing, free
  and implied-slack column elimination, duplicate/vacuous row dropping,
  zero columns, infeasibility detection, the block decomposition with
  full-space value recovery, and one live model per block;
* the ``reduce`` argument of :meth:`LPProblem.solve` — on by default,
  ``reduce=False`` routes a solve to the direct backend — and drawn
  sequences of row additions, checkpoints, rollbacks and solves on which
  the two paths must agree;
* registry-wide parity — resolved moment bounds through the reduction and
  through direct solves (the oracle, reached by patching; see
  ``_lp_paths``) agree to solver tolerance on every registry program (the
  fuzz-corpus counterpart lives in ``tests/test_backends.py``).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _lp_paths import direct_solves
from repro import AnalysisOptions, AnalysisPipeline, analyze
from repro.lp.affine import AffForm
from repro.lp.backends.base import EQ, GE
from repro.lp.problem import LPError, LPInfeasibleError, LPProblem
from repro.lp.reduce import ReducedSolver
from repro.programs import registry


def build_problem():
    return LPProblem()


class TestSwitch:
    def test_disabled_solve_uses_backend_directly(self):
        lp = build_problem()
        x = lp.fresh("x")
        lp.add_ge(AffForm.of_var(x) - 2.0)
        solution = lp.solve(AffForm.of_var(x), reduce=False)
        assert solution.objective == pytest.approx(2.0)
        assert lp._reducer is None  # never attached
        assert lp.backend.stats.solves == 1

    def test_default_solve_goes_through_the_reducer(self):
        lp = build_problem()
        x = lp.fresh("x")
        lp.add_ge(AffForm.of_var(x) - 2.0)
        solution = lp.solve(AffForm.of_var(x))
        assert solution.objective == pytest.approx(2.0)
        assert lp._reducer is not None
        assert lp.reduction_stats() is not None
        assert lp.backend.stats.solves == 0  # the block models solved it


class TestPresolveRules:
    def _stats(self, lp):
        stats = lp.reduction_stats()
        assert stats is not None
        return stats

    def test_singleton_equality_cascade_fixes_chain(self):
        lp = build_problem()
        x, y, z = lp.fresh("x"), lp.fresh("y"), lp.fresh("z")
        lp.add_eq(AffForm.of_var(x) - 4.0)  # x == 4
        lp.add_eq(AffForm.of_var(y) - AffForm.of_var(x))  # y == x -> singleton
        lp.add_eq(AffForm.of_var(z) - AffForm.of_var(y) - 1.0)  # z == y + 1
        solution = lp.solve(AffForm.of_var(z), reduce=True)
        assert solution.value_of(x) == pytest.approx(4.0)
        assert solution.value_of(y) == pytest.approx(4.0)
        assert solution.value_of(z) == pytest.approx(5.0)
        assert solution.objective == pytest.approx(5.0)
        stats = self._stats(lp)
        assert stats["fixed_cols"] == 3
        assert stats["reduced_rows"] == 0

    def test_free_singleton_column_absorbs_row(self):
        lp = build_problem()
        x, y = lp.fresh("x"), lp.fresh("y")
        lp.add_ge(AffForm.of_var(x) - 1.0)  # core row
        # y appears only here: the row is droppable, y recovered in postsolve.
        lp.add_eq(AffForm.of_var(y) + 2.0 * AffForm.of_var(x) - 10.0)
        solution = lp.solve(AffForm.of_var(x), reduce=True)
        assert solution.objective == pytest.approx(1.0)
        assert solution.value_of(y) == pytest.approx(10.0 - 2.0 * 1.0)
        assert self._stats(lp)["free_cols"] == 1

    def test_implied_slack_turns_equality_into_inequality(self):
        lp = build_problem()
        x = lp.fresh("x")
        lam = lp.fresh_nonneg("lam")
        # x - lam == 3 with lam >= 0 projects to x >= 3.
        lp.add_eq(AffForm.of_var(x) - AffForm.of_var(lam) - 3.0)
        solution = lp.solve(AffForm.of_var(x), reduce=True)
        assert solution.objective == pytest.approx(3.0)
        assert solution.value_of(lam) == pytest.approx(0.0)
        stats = self._stats(lp)
        assert stats["slack_cols"] == 1
        # Driving x up must stretch the recovered slack accordingly.
        solution = lp.solve(AffForm.of_var(x) * -1.0, bound=50.0, reduce=True)
        assert solution.objective == pytest.approx(-50.0)
        assert solution.value_of(lam) == pytest.approx(47.0)

    def test_lambda_that_only_hurts_is_fixed_to_zero(self):
        lp = build_problem()
        x = lp.fresh("x")
        lam = lp.fresh_nonneg("lam")
        # x - lam >= 1: lam > 0 only weakens the row; any optimum has lam=0.
        lp.add_ge(AffForm.of_var(x) - AffForm.of_var(lam) - 1.0)
        solution = lp.solve(AffForm.of_var(x), reduce=True)
        assert solution.objective == pytest.approx(1.0)
        assert solution.value_of(lam) == 0.0

    def test_optimality_fixed_lambda_resurrects_under_objective(self):
        """λ = 0 is an optimality choice, not a substitution: an objective
        on the column must put it back into the core (review finding)."""
        lp = build_problem()
        x = lp.fresh("x")
        lam = lp.fresh_nonneg("lam")
        lp.add_ge(AffForm.of_var(x) - AffForm.of_var(lam) - 1.0)
        lp.solve(AffForm.of_var(x), reduce=True)
        # Maximize λ by minimizing -λ.
        best = lp.solve(AffForm.of_var(lam) * -1.0, bound=100.0, reduce=True)
        direct = lp.solve(AffForm.of_var(lam) * -1.0, bound=100.0, reduce=False)
        assert best.objective == pytest.approx(direct.objective)
        assert best.objective == pytest.approx(-99.0)

    def test_optimality_fixed_lambda_resurrects_under_new_row(self):
        """A later row on an optimality-fixed λ invalidates the fix; the
        system stays feasible and the optimum moves (review finding)."""
        lp = build_problem()
        x = lp.fresh("x")
        lam = lp.fresh_nonneg("lam")
        lp.add_ge(AffForm.of_var(x) - AffForm.of_var(lam) - 1.0)
        lp.solve(AffForm.of_var(x), reduce=True)
        lp.add_ge(AffForm.of_var(lam) - 5.0)
        solution = lp.solve(AffForm.of_var(x), reduce=True)
        assert solution.objective == pytest.approx(6.0)
        assert solution.value_of(lam) == pytest.approx(5.0)

    def test_duplicate_rows_are_dropped(self):
        lp = build_problem()
        x, y = lp.fresh("x"), lp.fresh("y")
        for _ in range(3):
            lp.add_ge(AffForm.of_var(x) + AffForm.of_var(y) - 2.0)
        lp.add_ge(AffForm.of_var(x) - AffForm.of_var(y))
        solution = lp.solve(AffForm.of_var(x), reduce=True)
        assert solution.objective == pytest.approx(1.0)
        assert self._stats(lp)["dup_rows"] == 2

    def test_vacuous_inequality_is_dropped(self):
        lp = build_problem()
        lam = lp.fresh_nonneg("lam")
        mu = lp.fresh_nonneg("mu")
        # lam + mu >= -5 holds for every nonnegative point.
        lp.add_ge(AffForm.of_var(lam) + AffForm.of_var(mu) + 5.0)
        lp.add_ge(AffForm.of_var(lam) + AffForm.of_var(mu) - 1.0)
        solution = lp.solve(AffForm.of_var(lam) + AffForm.of_var(mu), reduce=True)
        assert solution.objective == pytest.approx(1.0)
        assert self._stats(lp)["vacuous_rows"] == 1

    def test_zero_column_sits_at_its_optimal_bound(self):
        lp = build_problem()
        x = lp.fresh("x")
        lam = lp.fresh_nonneg("lam")  # in no row at all
        lp.add_ge(AffForm.of_var(x) - 1.0)
        solution = lp.solve(
            AffForm.of_var(x) + AffForm.of_var(lam), bound=100.0, reduce=True
        )
        assert solution.value_of(lam) == pytest.approx(0.0)
        solution = lp.solve(
            AffForm.of_var(x) - AffForm.of_var(lam), bound=100.0, reduce=True
        )
        assert solution.value_of(lam) == pytest.approx(100.0)

    def test_presolve_detects_forced_negative_multiplier(self):
        lp = build_problem()
        lam = lp.fresh_nonneg("lam")
        lp.add_eq(AffForm.of_var(lam) + 2.0)  # lam == -2 contradicts lam >= 0
        with pytest.raises(LPInfeasibleError, match="presolve"):
            lp.solve(AffForm.of_var(lam), reduce=True)

    def test_presolve_detects_contradictory_substitution(self):
        lp = build_problem()
        x, y = lp.fresh("x"), lp.fresh("y")
        lp.add_eq(AffForm.of_var(x) - 1.0)
        lp.add_eq(AffForm.of_var(y) - 2.0)
        lp.add_eq(AffForm.of_var(x) - AffForm.of_var(y))  # 1 == 2
        with pytest.raises(LPInfeasibleError, match="residual"):
            lp.solve(AffForm.of_var(x), reduce=True)


class TestDecomposition:
    def test_independent_blocks_solve_separately_and_map_back(self):
        lp = build_problem()
        x, y = lp.fresh("x"), lp.fresh("y")
        a, b = lp.fresh("a"), lp.fresh("b")
        lp.add_ge(AffForm.of_var(x) - 1.0)
        lp.add_ge(AffForm.of_var(y) - AffForm.of_var(x) - 1.0)
        lp.add_ge(AffForm.of_var(a) - 5.0)
        lp.add_ge(AffForm.of_var(b) - AffForm.of_var(a) - 5.0)
        objective = (
            AffForm.of_var(x) + AffForm.of_var(y) + AffForm.of_var(a) + AffForm.of_var(b)
        )
        solution = lp.solve(objective, reduce=True)
        assert solution.objective == pytest.approx(1 + 2 + 5 + 10)
        stats = lp.reduction_stats()
        assert stats["components"] == 2
        assert sorted(stats["component_sizes"]) == [2, 2]
        assert [bid for bid, _ in stats["block_solve_seconds"]] == [0, 1]
        for var, expected in ((x, 1.0), (y, 2.0), (a, 5.0), (b, 10.0)):
            assert solution.value_of(var) == pytest.approx(expected)

    def test_cut_row_spanning_blocks_recomputes_the_reduction(self):
        """Only per-block pins enter the live block models; any other row
        (here one coupling two blocks) recomputes the reduction."""
        lp = build_problem()
        x, y = lp.fresh("x"), lp.fresh("y")
        lp.add_ge(AffForm.of_var(x) - 1.0)
        lp.add_ge(AffForm.of_var(y) - 2.0)
        first = lp.solve(AffForm.of_var(x) + AffForm.of_var(y), reduce=True)
        assert first.objective == pytest.approx(3.0)
        assert lp.reduction_stats()["components"] == 2
        assert lp._reducer.invalidations == 0
        lp.add_ge(AffForm.of_var(x) + AffForm.of_var(y) - 9.0)  # couples blocks
        second = lp.solve(AffForm.of_var(x) + AffForm.of_var(y), reduce=True)
        assert second.objective == pytest.approx(9.0)
        assert lp._reducer.invalidations == 1
        assert lp.reduction_stats()["components"] == 1

    def test_objective_on_eliminated_column_triggers_reprotection(self):
        lp = build_problem()
        x, y = lp.fresh("x"), lp.fresh("y")
        lp.add_ge(AffForm.of_var(x) - 1.0)
        # y is a free singleton: eliminated from the core on the first solve.
        lp.add_eq(AffForm.of_var(y) - AffForm.of_var(x) - 1.0)
        first = lp.solve(AffForm.of_var(x), reduce=True)
        assert first.value_of(y) == pytest.approx(2.0)
        # A later objective on y protects it and recomputes, transparently.
        second = lp.solve(AffForm.of_var(y), reduce=True)
        assert second.objective == pytest.approx(2.0)
        assert lp._reducer.invalidations >= 1

    def test_protected_row_free_column_gets_a_singleton_block(self):
        """A row-free column in the objective becomes its own block once
        protected, so a later row on it recomputes the reduction once
        instead of cycling through protect-and-recompute rounds until the
        reducer disables itself."""
        lp = build_problem()
        x = lp.fresh("x")
        free = lp.fresh("free")  # appears in no row
        lp.add_ge(AffForm.of_var(x) - 1.0)
        # The pipeline protects every objective column up front.
        lp.protect_columns([x.index, free.index])
        objective = AffForm.of_var(x) + AffForm.of_var(free)
        first = lp.solve(objective, bound=100.0, reduce=True)
        assert first.objective == pytest.approx(1.0 - 100.0)
        assert lp._reducer.invalidations == 0
        # A cut touching the row-free column must not disable the reducer.
        lp.add_ge(AffForm.of_var(free) + 3.0)
        second = lp.solve(objective, bound=100.0, reduce=True)
        assert second.objective == pytest.approx(1.0 - 3.0)
        assert not lp._reducer._disabled

    def test_pin_objective_pins_blocks_separately(self):
        lp = build_problem()
        x, y = lp.fresh("x"), lp.fresh("y")
        lp.add_ge(AffForm.of_var(x) - 1.0)
        lp.add_ge(AffForm.of_var(y) - 2.0)
        checkpoint = lp.checkpoint()
        objective = AffForm.of_var(x) + AffForm.of_var(y)
        first = lp.solve(objective, reduce=True)
        applied = lp.pin_objective(objective, first.objective, 1e-5)
        assert applied <= 2 * 1e-5 * (1.0 + 3.0)
        assert lp._reducer.block_pins == 2
        assert lp._reducer.invalidations == 0
        # Maximizing -(x) under the pin stays within the pinned band.
        second = lp.solve(AffForm.of_var(x) * -1.0, reduce=True)
        assert second.objective == pytest.approx(-1.0, abs=1e-3)
        lp.rollback(checkpoint)
        third = lp.solve(objective, reduce=True)
        assert third.objective == pytest.approx(3.0)


@st.composite
def lp_sequences(draw):
    """2–6 columns, each free or nonnegative, and 3–10 operations: add an
    ``eq`` or ``ge`` row (1–3 terms, integer coefficients in [−3, 3], a
    constant in [−5, 5]), take a checkpoint, roll back to an earlier one,
    or solve an objective of 1–3 terms."""
    n = draw(st.integers(2, 6))
    nonneg = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    terms = st.dictionaries(
        st.integers(0, n - 1), st.integers(-3, 3), min_size=1, max_size=3
    )
    operation = st.one_of(
        st.tuples(st.just("row"), st.sampled_from([EQ, GE]), terms, st.integers(-5, 5)),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("rollback"), st.integers(0, 9)),
        st.tuples(st.just("solve"), terms),
    )
    return nonneg, draw(st.lists(operation, min_size=3, max_size=10))


def _form(terms: dict[int, int], const: int = 0) -> AffForm:
    return AffForm({j: float(c) for j, c in terms.items() if c}, float(const))


def _outcome(call):
    try:
        return "value", call()
    except LPInfeasibleError:
        return "infeasible", None
    except LPError:
        return "error", None


class TestSequences:
    """Only per-block pins enter the live block models; every other row
    recomputes the reduction.  Twin problems run one drawn sequence, one
    solving reduced and one direct, and must reach the same outcome at
    every step: a value (equal when both statuses are ``optimal``), an
    infeasibility at emission or at solve, or a solver failure.  The box of
    100 keeps vertices off the conditioning trouble of a 1e12 box."""

    @given(drawn=lp_sequences())
    @settings(max_examples=200, deadline=None)
    def test_reduced_and_direct_twins_agree(self, drawn):
        nonneg, operations = drawn
        twins = []
        for reduce in (True, False):
            lp = LPProblem()
            for j, sign in enumerate(nonneg):
                (lp.fresh_nonneg if sign else lp.fresh)(f"x{j}")
            twins.append((reduce, lp, [lp.checkpoint()]))
        for operation in operations:
            outcomes = []
            for reduce, lp, checkpoints in twins:
                if operation[0] == "row":
                    _, kind, terms, const = operation
                    add = lp.add_eq if kind == EQ else lp.add_ge
                    outcomes.append(_outcome(lambda: add(_form(terms, const))))
                elif operation[0] == "checkpoint":
                    checkpoints.append(lp.checkpoint())
                elif operation[0] == "rollback":
                    keep = operation[1] % len(checkpoints)
                    lp.rollback(checkpoints[keep])
                    del checkpoints[keep + 1 :]
                else:
                    objective = _form(operation[1])
                    outcomes.append(
                        _outcome(lambda: lp.solve(objective, bound=100.0, reduce=reduce))
                    )
            if not outcomes:
                continue
            (got, reduced), (want, direct) = outcomes
            assert got == want, (operation, got, want)
            if reduced is not None and reduced.status == direct.status == "optimal":
                v = direct.objective
                assert abs(reduced.objective - v) <= 1e-6 * (1 + abs(v)), operation


def _independent_blocks(n: int, rows_per_block: int = 2) -> LPProblem:
    """``n`` structurally identical independent blocks: two nonnegative
    variables coupled by one equality plus lower-bound inequalities."""
    lp = build_problem()
    for b in range(n):
        x = lp.fresh_nonneg(f"x{b}")
        y = lp.fresh_nonneg(f"y{b}")
        lp.add_eq(AffForm.of_var(x) + AffForm.of_var(y) - 10.0)
        lp.add_ge(AffForm.of_var(x) - 2.0)
        for extra in range(rows_per_block - 2):
            lp.add_ge(AffForm.of_var(y) - 1.0 - extra)
    return lp


def _total_objective(lp: LPProblem) -> AffForm:
    return AffForm({index: 1.0 for index in sorted(lp.nonneg_indices)})


class TestSameShapeBlocks:
    """Each block of the reduced core is its own live model, however many
    blocks share its shape."""

    def test_same_shape_blocks_get_one_live_model_each(self):
        lp = _independent_blocks(4)
        solution = lp.solve(_total_objective(lp), reduce=True)
        assert lp._reducer is not None
        live = lp._reducer._live
        assert len(live) == 4
        assert len({id(block.backend) for block in live}) == 4
        # x >= 2, x + y == 10; min x+y is 10 per block.
        assert solution.objective == pytest.approx(40.0)

    def test_stacked_values_match_direct_solve(self):
        stacked = _independent_blocks(5)
        got = stacked.solve(_total_objective(stacked), reduce=True)
        direct = _independent_blocks(5)
        want = direct.solve(_total_objective(direct), reduce=False)
        assert got.objective == pytest.approx(want.objective, abs=1e-7)


class TestRegistryParity:
    """Reduction on/off must agree on every registry program.

    Two layers of agreement, mirroring the cross-backend parity suite:

    * the lexicographic *stage optima* — the quantities the LP actually
      pins — agree to 1e-6 in the objective's own units;
    * the resolved *interval ends* agree within the documented cut-margin
      bands (``stage_tolerances``): each pin holds later stages only within
      its margin, and both paths may sit anywhere inside the band — the
      per-block pins of the reduced path are in fact strictly tighter, so
      its ends often land closer to the exact lexicographic optimum.
    """

    @pytest.mark.parametrize("name", sorted(registry.all_benchmarks()))
    def test_bounds_agree_with_reduction_on_and_off(self, name):
        bench = registry.get(name)
        options = replace(bench.options(), moment_degree=2)
        with direct_solves():
            off = analyze(registry.parsed(name), options)
        on = analyze(registry.parsed(name), options)
        assert len(off.objective_values) == len(on.objective_values)
        for stage, (a, b) in enumerate(
            zip(off.objective_values, on.objective_values)
        ):
            scale = max(
                off.objective_scales[stage], on.objective_scales[stage], 1.0
            )
            # Stages after the first sit on the previous stages' cut bands
            # (the two paths allocate their margins differently: one coupled
            # cut vs per-block pins), so the comparison widens by the
            # *recorded* margins of both runs on top of the usual
            # cross-solver tolerance.
            # Factor 30: the drift is the band times the dual sensitivity
            # of the pinned stages, which empirically reaches ~21 on the
            # registry.  Capped at 0.1% of the comparison scale so the
            # allowance cannot balloon on large-optimum programs — real
            # divergences (dropped constraints) are orders of magnitude
            # larger than either limit.
            ref = max(abs(a), abs(b), scale)
            band = min(
                30
                * (
                    sum(off.stage_tolerances[:stage])
                    + sum(on.stage_tolerances[:stage])
                ),
                1e-3 * ref,
            )
            tol = (1e-6 + stage * 2e-5) * ref + band
            plain = (
                off.solver_statuses[stage] in ("optimal", "constant")
                and on.solver_statuses[stage] in ("optimal", "constant")
            )
            if plain:
                assert math.isclose(a, b, rel_tol=1e-6, abs_tol=tol), (
                    name, stage, a, b,
                )
            else:
                # Degraded-rung optima are upper estimates; the reduced
                # path may do strictly better, never worse.
                assert b <= a + tol, (name, stage, a, b)
        if bench.extra_valuations:
            # With several objective valuations only the *sum* of the
            # interval widths is pinned; per-valuation widths are free along
            # the degenerate optimal face (true between any two solvers —
            # the cross-backend suite has the same restriction).
            return
        for k in (1, 2):
            a = off.raw_interval(k)
            b = on.raw_interval(k)
            scale = max(1.0, abs(a.lo), abs(a.hi))
            # The LP pins interval *widths* (the imprecision objective);
            # end positions are only determined up to the optimal face.
            # Widths drift within the documented cut-margin bands.
            band = 1e-5 * scale + min(
                30 * (sum(off.stage_tolerances[:k]) + sum(on.stage_tolerances[:k])),
                1e-3 * scale,
            )
            width_off = a.hi - a.lo
            width_on = b.hi - b.lo
            assert abs(width_off - width_on) <= band, (name, k, a, b, band)

    @pytest.mark.parametrize("name", ["rdwalk", "geo", "kura-1-1"])
    def test_interval_ends_match_on_well_conditioned_programs(self, name):
        """On the programs whose optima pin the ends themselves (the same
        subset the cross-backend suite compares end-wise), the reduction
        must reproduce both interval ends."""
        options = replace(registry.get(name).options(), moment_degree=2)
        with direct_solves():
            off = analyze(registry.parsed(name), options)
        on = analyze(registry.parsed(name), options)
        for k in (1, 2):
            a, b = off.raw_interval(k), on.raw_interval(k)
            scale = max(1.0, abs(a.lo), abs(a.hi))
            band = 1e-5 * scale + min(
                30 * (sum(off.stage_tolerances[:k]) + sum(on.stage_tolerances[:k])),
                1e-3 * scale,
            )
            assert abs(a.hi - b.hi) <= band, (name, k, "hi", a, b)
            assert abs(a.lo - b.lo) <= band, (name, k, "lo", a, b)

    def test_reduce_off_after_reduce_on_shares_the_system(self):
        """A reduce-off lexicographic analyze after a reduce-on one, on the
        same cached constraint system, must solve cleanly and must not
        inherit the reduced run's stats (review findings)."""
        options = AnalysisOptions(moment_degree=2)
        pipe = AnalysisPipeline(registry.parsed("rdwalk"))
        on = pipe.analyze(options)
        # The cache keys do not name the solve path: drop the cached
        # solution and result, keep the derived constraint system.
        pipe._solutions.clear()
        pipe._results.clear()
        with direct_solves():
            off = pipe.analyze(options)
        assert on.lp_reduction is not None
        assert off.lp_reduction is None
        for k in (1, 2):
            a, b = on.raw_interval(k), off.raw_interval(k)
            scale = max(1.0, abs(a.lo), abs(a.hi))
            assert abs(a.hi - b.hi) <= 1e-3 * scale  # within cut bands

    def test_reduction_stats_reach_the_result(self):
        result = analyze(registry.parsed("rdwalk"), AnalysisOptions())
        stats = result.lp_reduction
        assert stats is not None
        assert stats["cols"] == result.lp_variables
        assert stats["reduced_cols"] < stats["cols"]
        assert stats["components"] >= 1
        assert result.stage_tolerances[-1] == 0.0
        assert result.stage_tolerances[0] > 0.0  # stage 1 pinned for stage 2
        with direct_solves():
            off = analyze(registry.parsed("rdwalk"), AnalysisOptions())
        assert off.lp_reduction is None


class TestOverlaySemantics:
    def test_row_storage_is_never_mutated(self):
        lp = build_problem()
        x = lp.fresh("x")
        lam = lp.fresh_nonneg("lam")
        lp.add_eq(AffForm.of_var(x) - AffForm.of_var(lam) - 3.0)
        lp.add_ge(AffForm.of_var(x) - 1.0)
        before = (lp.backend.num_rows("eq"), lp.backend.num_rows("ge"))
        lp.solve(AffForm.of_var(x), reduce=True)
        assert (lp.backend.num_rows("eq"), lp.backend.num_rows("ge")) == before

    def test_reducer_is_dropped_on_pickle(self):
        import pickle

        lp = build_problem()
        x = lp.fresh("x")
        lp.add_ge(AffForm.of_var(x) - 2.0)
        lp.solve(AffForm.of_var(x), reduce=True)
        assert lp._reducer is not None
        clone = pickle.loads(pickle.dumps(lp))
        assert clone._reducer is None
        assert clone.solve(AffForm.of_var(x), reduce=True).objective == pytest.approx(2.0)

    def test_values_match_direct_solve_on_forced_system(self):
        """On a system with a unique solution the reduced and direct paths
        must produce identical full-space assignments."""
        lp_a, lp_b = build_problem(), build_problem()
        for lp in (lp_a, lp_b):
            x, y, lam = lp.fresh("x"), lp.fresh("y"), lp.fresh_nonneg("lam")
            lp.add_eq(AffForm.of_var(x) - 5.0)
            lp.add_eq(AffForm.of_var(y) - 2.0 * AffForm.of_var(x))
            lp.add_eq(AffForm.of_var(lam) - 1.0)
        sol_on = lp_a.solve(None, reduce=True)
        sol_off = lp_b.solve(None, reduce=False)
        np.testing.assert_allclose(sol_on.values, sol_off.values, atol=1e-7)


class TestCleanupPass:
    def test_a_timeout_inside_a_cleanup_solve_propagates(self, monkeypatch):
        """The cleanup pass keeps the original vertex only on a solver
        failure (``LPError``); a deadline expiring in one of its solves
        ends the analysis like any other timeout."""
        from repro.deadline import AnalysisTimeout
        from repro.lp.backends import IncrementalBackend
        from repro.programs.synthetic import coupon_chain

        cleanups = []
        cleaning = []
        cleanup_riders = ReducedSolver._cleanup_riders
        backend_solve = IncrementalBackend.solve

        def cleanup(self, *args):
            cleanups.append(True)
            cleaning.append(True)
            try:
                return cleanup_riders(self, *args)
            finally:
                cleaning.pop()

        def solve(self, *args):
            if cleaning:
                raise AnalysisTimeout("lp.solve", 0.0)
            return backend_solve(self, *args)

        monkeypatch.setattr(ReducedSolver, "_cleanup_riders", cleanup)
        monkeypatch.setattr(IncrementalBackend, "solve", solve)
        with pytest.raises(AnalysisTimeout):
            analyze(coupon_chain(4), AnalysisOptions(moment_degree=4))
        assert cleanups
