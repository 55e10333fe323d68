"""Backend parity, incremental-assembly and robustness-cascade tests.

The analyzer re-optimizes one persistent HiGHS model per LP across the
lexicographic stages; its bounds must agree with cold models, built and
presolved afresh for every solve (reached by patching; see ``_lp_paths``):
the same optimal objective values on every registry program (the solutions
themselves may differ on degenerate optimal faces — that is allowed).  The
backend must additionally *append* lexicographic stage cuts to its
persistent model instead of rebuilding it per stage, answer on its
interior-point last rung when every simplex rung fails, and raise a typed
error when that fails too.  Small random LPs are certified against exact
rational arithmetic (:mod:`repro.logic.entail`).
"""

import contextlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _lp_paths import cold_models, direct_solves, last_rung_lp, scripted_statuses
from repro import AnalysisOptions, AnalysisPipeline, analyze
from repro.deadline import AnalysisTimeout, Deadline, deadline_scope
from repro.logic.entail import entails, is_feasible
from repro.logic.linear import LinExpr, LinIneq
from repro.lp.affine import AffBuilder, AffForm
from repro.lp.backends import IncrementalBackend
from repro.lp.backends.base import EQ, GE
from repro.lp.problem import LPInfeasibleError, LPProblem
from repro.programs import registry


def registry_names():
    return sorted(registry.all_benchmarks())


def bench_options(name: str, registered: bool = False) -> AnalysisOptions:
    """``name``'s registered options at moment degree 2, or at its
    registered degree."""
    options = registry.get(name).options()
    return options if registered else replace(options, moment_degree=2)


def analyze_cold(name: str):
    with cold_models():
        return analyze(registry.parsed(name), bench_options(name))


class TestRegistryParity:
    @pytest.mark.parametrize("name", registry_names())
    def test_objectives_match_across_backends(self, name):
        """Stage optima agree to 1e-6 in the objective's own units.

        The stage objective is normalized by ``scale`` before it reaches the
        solver, so the solver's tolerance lives at ``1e-6 * scale``; the
        recorded ``objective_scales`` recover that unit.  Stages after the
        first additionally sit on the previous stages' cut bands (each cut
        pins the prior optimum only up to a 1e-5 margin, and the solvers may
        land anywhere inside the band), so their tolerance widens by 2e-5
        per preceding stage.  Where the cold models' cascade had to degrade
        (regularization / tighter boxes — recorded in ``solver_statuses``)
        their optimum is only an upper estimate, and the persistent models
        are allowed to do strictly better, never worse.
        """
        cold = analyze_cold(name)
        warm = analyze(registry.parsed(name), bench_options(name))
        assert len(cold.objective_values) == len(warm.objective_values)
        for stage, (a, b) in enumerate(
            zip(cold.objective_values, warm.objective_values)
        ):
            scale = max(
                cold.objective_scales[stage], warm.objective_scales[stage], 1.0
            )
            tol = (1e-6 + stage * 2e-5) * max(abs(a), abs(b), scale)
            plain = (
                cold.solver_statuses[stage] in ("optimal", "constant")
                and warm.solver_statuses[stage] in ("optimal", "constant")
            )
            if plain:
                assert math.isclose(a, b, rel_tol=1e-6, abs_tol=tol), (
                    f"{name} stage {stage}: cold={a!r} warm={b!r}"
                )
            else:
                assert b <= a + tol, (
                    f"{name} stage {stage}: warm={b!r} worse than "
                    f"degraded cold={a!r} ({cold.solver_statuses[stage]})"
                )

    @pytest.mark.parametrize("name", ["rdwalk", "geo", "kura-1-1"])
    def test_first_moment_bounds_match(self, name):
        cold = analyze_cold(name)
        warm = analyze(registry.parsed(name), bench_options(name))
        c, w = cold.raw_interval(1), warm.raw_interval(1)
        assert c.hi == pytest.approx(w.hi, rel=1e-6, abs=1e-6)
        assert c.lo == pytest.approx(w.lo, rel=1e-6, abs=1e-6)


class TestFuzzCorpusParity:
    """The warm-start drift trap: the backend reuses one HiGHS model across
    stages and batches, so a stale basis could silently shift bounds on
    programs outside the curated registry.  The fuzz corpus (arbitrary
    generated programs, fixed seeds) must produce *identical* moment
    intervals on persistent and on cold models."""

    CORPUS_SEEDS = list(range(8))

    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.programs.fuzz import generate_corpus

        return generate_corpus(len(self.CORPUS_SEEDS), seed=0)

    def _analyze(self, case, cold=False, reduce=True):
        options = AnalysisOptions(
            moment_degree=case.moment_degree,
            objective_valuations=(case.valuation,),
        )
        with contextlib.ExitStack() as paths:
            if cold:
                paths.enter_context(cold_models())
            if not reduce:
                paths.enter_context(direct_solves())
            return analyze(case.parse(), options)

    @pytest.mark.parametrize("reduce", [False, True])
    def test_fuzz_bounds_identical_across_backends(self, corpus, reduce):
        """Cold-vs-warm parity must hold with the LP reduction layer both
        off and on (the reduced path decomposes and presolves the same
        system either way)."""
        checked = 0
        for case in corpus:
            try:
                cold = self._analyze(case, cold=True, reduce=reduce)
            except Exception:
                continue  # infeasible for the analyzer: parity is vacuous
            warm = self._analyze(case, reduce=reduce)
            for k in range(1, case.moment_degree + 1):
                c = cold.raw_interval(k, case.valuation)
                w = warm.raw_interval(k, case.valuation)
                scale = max(1.0, abs(c.lo), abs(c.hi))
                assert w.hi == pytest.approx(c.hi, abs=1e-6 * scale), (
                    case.name, k, "hi",
                )
                assert w.lo == pytest.approx(c.lo, abs=1e-6 * scale), (
                    case.name, k, "lo",
                )
                checked += 1
        assert checked >= 8  # most of the corpus must actually be comparable

    def test_fuzz_bounds_match_with_reduction_on_and_off(self, corpus):
        """On generated programs, moment intervals through the reduced
        solve path match the direct backend solves."""
        checked = 0
        for case in corpus:
            try:
                off = self._analyze(case, reduce=False)
            except Exception:
                continue
            on = self._analyze(case)
            for k in range(1, case.moment_degree + 1):
                a = off.raw_interval(k, case.valuation)
                b = on.raw_interval(k, case.valuation)
                scale = max(1.0, abs(a.lo), abs(a.hi))
                assert b.hi == pytest.approx(a.hi, abs=1e-6 * scale), (
                    case.name, k, "hi",
                )
                assert b.lo == pytest.approx(a.lo, abs=1e-6 * scale), (
                    case.name, k, "lo",
                )
                checked += 1
        assert checked >= 8

    def test_fuzz_bounds_stable_under_repeated_incremental_use(self, corpus):
        """Re-analyzing the same program through a *fresh* incremental
        backend must reproduce the first run bit-for-bit (no hidden state
        leaks between backend instances)."""
        case = corpus[0]
        first = self._analyze(case)
        second = self._analyze(case)
        for k in range(1, case.moment_degree + 1):
            a = first.raw_interval(k, case.valuation)
            b = second.raw_interval(k, case.valuation)
            assert (a.lo, a.hi) == (b.lo, b.hi)


class TestIncrementalAssembly:
    def test_lexicographic_cuts_are_appended_not_rebuilt(self):
        """The regression this backend exists for: across the lexicographic
        stages of one analysis, the HiGHS model is built exactly once and
        each stage cut arrives via addRows on the persistent model.  (The
        reduction layer is bypassed — it routes the solves to per-block
        backend instances; the reduced counterpart is tested below.)"""
        pipe = AnalysisPipeline(registry.parsed("rdwalk"))
        options = AnalysisOptions(moment_degree=3)
        with direct_solves():
            pipe.analyze(options)
        stats = pipe.constraint_system(options).lp.backend.stats
        assert stats.solves == 3  # one per moment stage
        assert stats.model_builds == 1
        # m-1 = 2 cut rows pinned previous stage optima.
        assert stats.rows_appended == 2

    def test_reduced_pins_are_appended_to_block_models(self, monkeypatch):
        """With the reduction layer on, the lexicographic stage pins land on
        the live per-block models via addRows, and the pipeline never makes
        the reducer recompute: it protects every objective column up front
        and adds no row outside the pins.  Any other row would cost a full
        presolve and cold block models at the next stage.  Checked on the
        registry programs at their registered options and on the fig10
        programs at m=4, each on a fresh pipeline.  The reducer lives only
        inside the solve window, so a wrapper around its ``solve`` captures
        it there."""
        from repro.lp.reduce import ReducedSolver
        from repro.programs.synthetic import coupon_chain, rdwalk_chain

        solving = []
        original = ReducedSolver.solve

        def capture(reducer, *args, **kwargs):
            solving.append(reducer)
            return original(reducer, *args, **kwargs)

        monkeypatch.setattr(ReducedSolver, "solve", capture)

        inputs = [
            (name, registry.parsed(name), bench_options(name, registered=True))
            for name in registry_names()
        ]
        inputs += [
            (name, program, AnalysisOptions(moment_degree=4))
            for name, program in (
                ("cc4", coupon_chain(4)),
                ("cc8", coupon_chain(8)),
                ("cc16", coupon_chain(16)),
                ("rw2", rdwalk_chain(2)),
            )
        ]
        for name, program, options in inputs:
            solving.clear()
            pipe = AnalysisPipeline(program)
            pipe.analyze(options)
            lp = pipe.constraint_system(options).lp
            # One reducer served every stage of the window.
            assert len({id(r) for r in solving}) == 1, name
            reducer = solving[0]
            assert reducer.problem is lp, name
            assert reducer is not None and reducer.last_was_reduced, name
            assert reducer.invalidations == 0, name
            # The *problem* backend never solved anything itself.
            assert lp.backend.stats.solves == 0, name
            if name == "rdwalk":
                assert reducer.block_pins >= 1  # a non-constant stage pinned

    def test_cold_models_rebuild_per_stage(self):
        """``cold_models()`` lands: every stage builds a fresh model."""
        options = AnalysisOptions(moment_degree=3)
        with cold_models(), direct_solves():
            pipe = AnalysisPipeline(registry.parsed("rdwalk"))
            pipe.analyze(options)
        stats = pipe.constraint_system(options).lp.backend.stats
        assert stats.model_builds == stats.solves == 3

    @pytest.mark.parametrize("backend", [IncrementalBackend], ids=["incremental"])
    def test_cut_rows_added_after_reduction_roll_back_cleanly(self, backend):
        """A row appended after the reduction snapshot recomputes the
        reduction; rolling it back must recompute again and reproduce the
        original optimum."""
        lp = LPProblem(backend=backend())
        x, y = lp.fresh("x"), lp.fresh("y")
        lam = lp.fresh_nonneg("lam")
        lp.add_ge(AffForm.of_var(x) - 3.0)
        lp.add_ge(AffForm.of_var(y) - 1.0)
        lp.add_eq(AffForm.of_var(lam) - 2.0)
        first = lp.solve(AffForm.of_var(x) + AffForm.of_var(y))
        assert first.objective == pytest.approx(4.0)
        assert first.value_of(lam) == pytest.approx(2.0)
        cp = lp.checkpoint()
        # A cut that spans both blocks (x and y live in separate
        # components) recomputes the reduction on the reduced path.
        lp.add_ge(AffForm.of_var(x) + AffForm.of_var(y) - 10.0)
        cut = lp.solve(AffForm.of_var(x) + AffForm.of_var(y))
        assert cut.objective == pytest.approx(10.0)
        lp.rollback(cp)
        again = lp.solve(AffForm.of_var(x) + AffForm.of_var(y))
        assert again.objective == pytest.approx(4.0)
        assert again.value_of(lam) == pytest.approx(2.0)

    def test_pipeline_rollback_keeps_cached_system_resolvable_reduced(self):
        """Re-solving one cached constraint system under different
        objectives must give the same bounds as fresh pipelines, with the
        reduction layer on (stage pins roll back between solves)."""
        program = registry.parsed("rdwalk")
        options = AnalysisOptions(moment_degree=2)
        other = AnalysisOptions(
            moment_degree=2, objective_valuations=({"d": 7.0, "x": 0.0},)
        )
        shared = AnalysisPipeline(program)
        first = shared.analyze(options)
        second = shared.analyze(other)
        fresh_first = AnalysisPipeline(program).analyze(options)
        fresh_second = AnalysisPipeline(program).analyze(other)
        for k in (1, 2):
            assert first.raw_interval(k).hi == pytest.approx(
                fresh_first.raw_interval(k).hi, rel=1e-9, abs=1e-9
            )
            assert second.raw_interval(k).hi == pytest.approx(
                fresh_second.raw_interval(k).hi, rel=1e-9, abs=1e-9
            )

    def test_checkpoint_rollback_restores_row_counts(self):
        lp = LPProblem(backend=IncrementalBackend())
        x = lp.fresh("x")
        lp.add_ge(AffForm.of_var(x) - 3.0)
        cp = lp.checkpoint()
        first = lp.solve(AffForm.of_var(x))
        assert first.objective == pytest.approx(3.0)
        lp.add_ge(AffForm.of_var(x) - 10.0)
        assert lp.solve(AffForm.of_var(x)).objective == pytest.approx(10.0)
        lp.rollback(cp)
        assert lp.num_constraints == 1
        assert lp.solve(AffForm.of_var(x)).objective == pytest.approx(3.0)

    def test_solve_after_adding_variables_rebuilds(self):
        lp = LPProblem(backend=IncrementalBackend())
        x = lp.fresh("x")
        lp.add_ge(AffForm.of_var(x) - 1.0)
        assert lp.solve(AffForm.of_var(x), reduce=False).objective == pytest.approx(1.0)
        y = lp.fresh("y")
        lp.add_ge(AffForm.of_var(y) - 5.0)
        assert lp.solve(
            AffForm.of_var(x) + AffForm.of_var(y), reduce=False
        ).objective == pytest.approx(6.0)
        assert lp.backend.stats.model_builds == 2

    def test_builder_rows_accepted(self):
        lp = LPProblem(backend=IncrementalBackend())
        x, y = lp.fresh("x"), lp.fresh("y")
        builder = AffBuilder()
        builder += AffForm.of_var(x)
        builder += AffForm.of_var(y)
        builder -= 4.0
        lp.add_eq(builder)
        eq2 = AffBuilder().add_var(x).add_var(y, -1.0)
        lp.add_eq(eq2.to_form())
        solution = lp.solve(AffForm.of_var(x))
        assert solution.value_of(x) == pytest.approx(2.0)
        assert solution.value_of(y) == pytest.approx(2.0)


def _solve_fresh(statuses: dict[str, str]) -> dict:
    """Solve :func:`last_rung_lp` under ``scripted_statuses(statuses)`` in a
    fresh interpreter: the outcome, and whether ``scipy.optimize`` loaded."""
    code = f"""
import json, sys
from _lp_paths import last_rung_lp, scripted_statuses
with scripted_statuses({statuses!r}):
    lp, objective = last_rung_lp()
    try:
        solution = lp.solve(objective, reduce=False)
        out = {{"objective": solution.objective, "status": solution.status}}
    except Exception as exc:
        out = {{"error": type(exc).__name__, "message": str(exc)}}
out["scipy.optimize"] = "scipy.optimize" in sys.modules
print(json.dumps(out))
"""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(here.parent / "src"), str(here), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestIpmLastRung:
    """The cascade's last rung runs HiGHS's interior-point method on the
    persistent model; no rung imports ``scipy.optimize``."""

    def test_ipm_rung_answers_when_simplex_rungs_fail(self):
        out = _solve_fresh({"choose": "kUnknown"})
        assert out == {
            "objective": pytest.approx(5.0),  # x=2, y=1, lam=2
            "status": "optimal",
            "scipy.optimize": False,
        }

    def test_every_rung_failing_raises_lp_error(self):
        out = _solve_fresh({"choose": "kUnknown", "ipm": "kUnknown"})
        assert out["error"] == "LPError"
        assert "5 cascade rungs" in out["message"]
        assert "interior point" in out["message"]
        assert "kUnknown" in out["message"]
        assert out["scipy.optimize"] is False

    def test_ipm_time_limit_is_a_timeout_not_an_lp_error(self):
        lp, objective = last_rung_lp()
        statuses = {"choose": "kUnknown", "ipm": "kTimeLimit"}
        with scripted_statuses(statuses), deadline_scope(Deadline(60.0)):
            with pytest.raises(AnalysisTimeout):
                lp.solve(objective, reduce=False)


class TestRidgeRung:
    def test_ridge_rung_reports_the_objective_at_its_vertex(self):
        """The ridge rungs add a tie-breaking cost on the nonnegative
        columns; the reported optimum must leave it out.  On this LP the
        objective is 0 at every feasible point, and HiGHS ends the ridge
        rung at x3 = 1e12, where the ridge alone costs 1e5."""
        lp = LPProblem()
        x0, x1, x2 = (AffForm.of_var(lp.fresh(f"x{j}")) for j in range(3))
        x3 = AffForm.of_var(lp.fresh_nonneg("x3"))
        lp.add_eq(x0 * -1.0 + x1 + x2 * 2.0 - x3)
        lp.add_ge(x2 + x3)
        lp.add_eq(x1 - x2)
        objective = x0 * -1.0 + x2 * 3.0 - x3
        with scripted_statuses({"choose": "kUnknown"}, runs=1):
            solution = lp.solve(objective, reduce=False)
        assert solution.status == "optimal:regularized"
        at_vertex = sum(c * solution.values[j] for j, c in objective.terms.items())
        assert solution.objective == at_vertex


#: The ±bound box every LP column sits in (``LPProblem.solve``'s default).
BOX = 1e12


@st.composite
def small_lps(draw):
    """1–4 columns, each free or nonnegative; 1–5 ``eq``/``ge`` rows with
    integer coefficients in [−4, 4] and constants in [−6, 6]; an integer
    objective to minimize."""
    n = draw(st.integers(1, 4))
    coeffs = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    nonneg = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from([EQ, GE]), coeffs, st.integers(-6, 6)),
            min_size=1,
            max_size=5,
        )
    )
    return nonneg, rows, draw(coeffs)


class TestExactReference:
    """Small LPs certified in exact rationals (:mod:`repro.logic.entail`).

    Γ is the rows, the sign constraints and the ±``BOX`` box.  A reported
    minimum ``v`` must be attained, ``Γ ∧ obj ≤ v + ε`` satisfiable, and,
    when the plain problem was solved (status ``optimal``), be the minimum:
    ``Γ ⊨ obj ≥ v − ε``.  The degraded rungs' values are upper estimates
    only (see :func:`repro.lp.backends.base.rung_status`).  A reported
    infeasibility needs an infeasible Γ.

    ``ε = 1e-6·(1 + |v|)`` plus 16 ulps of the vertex's largest entry per
    unit of objective coefficient: a vertex on the 1e12 box meets its rows
    only to within a few ulps of 1e12 (ROADMAP item 3), and ``v`` can be
    no closer than that to the exact optimum.
    """

    @pytest.mark.parametrize("reduce", [True, False], ids=["reduced", "direct"])
    @given(drawn=small_lps())
    @settings(max_examples=300, deadline=None)
    def test_optimum_is_certified_in_rationals(self, drawn, reduce):
        nonneg, rows, objective = drawn
        names = [f"x{j}" for j in range(len(nonneg))]
        gamma = []
        for name, sign in zip(names, nonneg):
            gamma.append(LinIneq(LinExpr.build({name: -1.0}, BOX)))
            gamma.append(LinIneq(LinExpr.build({name: 1.0}, 0.0 if sign else BOX)))
        for kind, coeffs, const in rows:
            expr = LinExpr.build(dict(zip(names, coeffs)), const)
            gamma.append(LinIneq(expr))
            if kind == EQ:
                gamma.append(LinIneq(-expr))
        obj = LinExpr.build(dict(zip(names, objective)))

        lp = LPProblem()
        cols = [
            (lp.fresh_nonneg(name) if sign else lp.fresh(name)).index
            for name, sign in zip(names, nonneg)
        ]

        def form(coeffs, const=0.0):
            return AffForm({j: float(c) for j, c in zip(cols, coeffs) if c}, const)

        try:
            for kind, coeffs, const in rows:
                add = lp.add_eq if kind == EQ else lp.add_ge
                add(form(coeffs, const))
            solution = lp.solve(form(objective), bound=BOX, reduce=reduce)
        except LPInfeasibleError:
            assert not is_feasible(gamma)
            return
        v = solution.objective
        largest = max(abs(float(x)) for x in solution.values)
        eps = 1e-6 * (1 + abs(v)) + 16 * math.ulp(largest) * sum(map(abs, objective))
        assert is_feasible(gamma + [LinIneq(-obj + (v + eps))])
        if solution.status == "optimal":
            assert entails(gamma, LinIneq(obj - (v - eps)))


class TestBackendRegistry:
    def test_default_is_incremental_when_highs_present(self):
        assert isinstance(LPProblem().backend, IncrementalBackend)
        system = AnalysisPipeline(registry.parsed("rdwalk")).constraint_system(
            AnalysisOptions(moment_degree=1)
        )
        assert isinstance(system.lp.backend, IncrementalBackend)


class TestInfeasibilityDiagnostics:
    def test_ge_constant_contradiction_surfaces_note(self):
        lp = LPProblem()
        with pytest.raises(LPInfeasibleError, match="loop.inv"):
            lp.add_ge(AffForm.constant(-1.0), note="loop.inv")

    @pytest.mark.parametrize("backend", [IncrementalBackend], ids=["incremental"])
    def test_solver_infeasibility_reports_noted_groups(self, backend):
        lp = LPProblem(backend=backend())
        x = lp.fresh("x")
        lp.add_ge(AffForm.of_var(x) - 3.0, note="lower.bound[x]")
        lp.add_le(AffForm.of_var(x) - 2.0, note="upper.bound[x]")
        with pytest.raises(LPInfeasibleError) as excinfo:
            lp.solve(AffForm.of_var(x))
        assert "upper.bound" in excinfo.value.diagnostics
        assert "lower.bound" in excinfo.value.diagnostics
        assert "1 variables" in excinfo.value.diagnostics

    def test_notes_are_rolled_back_with_rows(self):
        lp = LPProblem()
        x = lp.fresh("x")
        lp.add_ge(AffForm.of_var(x) - 1.0, note="keep")
        cp = lp.checkpoint()
        lp.add_ge(AffForm.of_var(x) - 2.0, note="drop")
        lp.rollback(cp)
        assert "drop" not in lp.infeasibility_diagnostics()
        assert "keep" in lp.infeasibility_diagnostics()
