"""Backend parity and incremental-assembly regression tests.

The two LP backends must be observably interchangeable: identical optimal
objective values on every registry program (the solutions themselves may
differ on degenerate optimal faces — that is allowed).  The incremental
backend must additionally *append* lexicographic stage cuts to its
persistent model instead of rebuilding it per stage.
"""

import math

import pytest

from repro import AnalysisOptions, AnalysisPipeline, analyze
from repro.lp.affine import AffBuilder, AffForm
from repro.lp.backends import (
    IncrementalBackend,
    ScipyDenseBackend,
    available_backends,
    get_backend,
    highs_available,
)
from repro.lp.problem import LPInfeasibleError, LPProblem
from repro.lp.reduce import reduce_override
from repro.programs import registry


def registry_names():
    return sorted(registry.all_benchmarks())


def bench_options(name: str, backend: str) -> AnalysisOptions:
    bench = registry.get(name)
    return AnalysisOptions(
        moment_degree=2,
        template_degree=bench.template_degree,
        degree_cap=bench.degree_cap,
        objective_valuations=(bench.valuation,) + tuple(bench.extra_valuations),
        backend=backend,
    )


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
        per preceding stage.  Where the *dense* cascade had to degrade
        (regularization / tighter boxes — recorded in ``solver_statuses``)
        its optimum is only an upper estimate, and the incremental backend
        is allowed to do strictly better, never worse.
        """
        dense = analyze(registry.parsed(name), bench_options(name, "dense"))
        incr = analyze(registry.parsed(name), bench_options(name, "incremental"))
        assert len(dense.objective_values) == len(incr.objective_values)
        for stage, (a, b) in enumerate(
            zip(dense.objective_values, incr.objective_values)
        ):
            scale = max(
                dense.objective_scales[stage], incr.objective_scales[stage], 1.0
            )
            tol = (1e-6 + stage * 2e-5) * max(abs(a), abs(b), scale)
            plain = (
                dense.solver_statuses[stage] in ("optimal", "constant")
                and incr.solver_statuses[stage] in ("optimal", "constant")
            )
            if plain:
                assert math.isclose(a, b, rel_tol=1e-6, abs_tol=tol), (
                    f"{name} stage {stage}: dense={a!r} incremental={b!r}"
                )
            else:
                assert b <= a + tol, (
                    f"{name} stage {stage}: incremental={b!r} worse than "
                    f"degraded dense={a!r} ({dense.solver_statuses[stage]})"
                )

    @pytest.mark.parametrize("name", ["rdwalk", "geo", "kura-1-1"])
    def test_first_moment_bounds_match(self, name):
        dense = analyze(registry.parsed(name), bench_options(name, "dense"))
        incr = analyze(registry.parsed(name), bench_options(name, "incremental"))
        d, i = dense.raw_interval(1), incr.raw_interval(1)
        assert d.hi == pytest.approx(i.hi, rel=1e-6, abs=1e-6)
        assert d.lo == pytest.approx(i.lo, rel=1e-6, abs=1e-6)


class TestFuzzCorpusParity:
    """The warm-start drift trap: the incremental backend reuses one HiGHS
    model across stages and batches, so a stale basis could silently shift
    bounds on programs outside the curated registry.  The fuzz corpus
    (arbitrary generated programs, fixed seeds) must produce *identical*
    moment intervals through both backends."""

    CORPUS_SEEDS = list(range(8))

    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.programs.fuzz import generate_corpus

        return generate_corpus(len(self.CORPUS_SEEDS), seed=0)

    def _analyze(self, case, backend, reduce=None):
        options = AnalysisOptions(
            moment_degree=case.moment_degree,
            objective_valuations=(case.valuation,),
            backend=backend,
            lp_reduce=reduce,
        )
        return analyze(case.parse(), options)

    @pytest.mark.parametrize("reduce", [False, True])
    def test_fuzz_bounds_identical_across_backends(self, corpus, reduce):
        """Dense-vs-incremental parity must hold with the LP reduction layer
        both off and on (the reduced path decomposes and presolves the same
        system for either backend)."""
        checked = 0
        for case in corpus:
            try:
                dense = self._analyze(case, "dense", reduce=reduce)
            except Exception:
                continue  # infeasible for the analyzer: parity is vacuous
            incr = self._analyze(case, "incremental", reduce=reduce)
            for k in range(1, case.moment_degree + 1):
                d = dense.raw_interval(k, case.valuation)
                i = incr.raw_interval(k, case.valuation)
                scale = max(1.0, abs(d.lo), abs(d.hi))
                assert i.hi == pytest.approx(d.hi, abs=1e-6 * scale), (
                    case.name, k, "hi",
                )
                assert i.lo == pytest.approx(d.lo, abs=1e-6 * scale), (
                    case.name, k, "lo",
                )
                checked += 1
        assert checked >= 8  # most of the corpus must actually be comparable

    def test_fuzz_bounds_match_with_reduction_on_and_off(self, corpus):
        """The kill-switch contract on generated programs: moment intervals
        through the reduced solve path match the direct backend solves."""
        checked = 0
        for case in corpus:
            try:
                off = self._analyze(case, None, reduce=False)
            except Exception:
                continue
            on = self._analyze(case, None, reduce=True)
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
        leaks through the module-level backend registry)."""
        case = corpus[0]
        first = self._analyze(case, "incremental")
        second = self._analyze(case, "incremental")
        for k in range(1, case.moment_degree + 1):
            a = first.raw_interval(k, case.valuation)
            b = second.raw_interval(k, case.valuation)
            assert (a.lo, a.hi) == (b.lo, b.hi)


class TestIncrementalAssembly:
    @pytest.mark.skipif(
        not highs_available(),
        reason="warm-start counters require a live HiGHS model "
        "(without one, solves route through _fallback_dense)",
    )
    def test_lexicographic_cuts_are_appended_not_rebuilt(self):
        """The regression this backend exists for: across the lexicographic
        stages of one analysis, the HiGHS model is built exactly once and
        each stage cut arrives via addRows on the persistent model.  (The
        reduction layer is forced off — it routes the solves to per-block
        backend instances; the reduced counterpart is tested below.)"""
        pipe = AnalysisPipeline(registry.parsed("rdwalk"))
        options = AnalysisOptions(moment_degree=3, backend="incremental")
        with reduce_override(False):
            pipe.analyze(options)
        stats = pipe.constraint_system(options).lp.backend.stats
        assert stats.solves == 3  # one per moment stage
        assert stats.model_builds == 1
        # m-1 = 2 cut rows pinned previous stage optima.
        assert stats.rows_appended == 2
        assert stats.fallbacks == 0

    def test_reduced_pins_are_appended_to_block_models(self):
        """With the reduction layer on, the lexicographic stage pins land on
        the live per-block models via addRows — no block is ever merged or
        rebuilt by the stage loop."""
        pipe = AnalysisPipeline(registry.parsed("rdwalk"))
        options = AnalysisOptions(moment_degree=3, backend="incremental")
        with reduce_override(True):
            pipe.analyze(options)
        reducer = pipe.constraint_system(options).lp._reducer
        assert reducer is not None and reducer.last_was_reduced
        assert reducer.block_merges == 0
        assert reducer.block_pins >= 1  # at least one non-constant stage pinned
        # The *problem* backend never solved anything itself.
        assert pipe.constraint_system(options).lp.backend.stats.solves == 0

    def test_dense_backend_rebuilds_per_stage(self):
        pipe = AnalysisPipeline(registry.parsed("rdwalk"))
        options = AnalysisOptions(moment_degree=3, backend="dense")
        with reduce_override(False):
            pipe.analyze(options)
        stats = pipe.constraint_system(options).lp.backend.stats
        assert stats.model_builds == stats.solves == 3

    @pytest.mark.parametrize("backend", ["dense", "incremental"])
    def test_cut_rows_added_after_reduction_roll_back_cleanly(self, backend):
        """Rows appended after the reduction snapshot (the lexicographic
        cuts) are projected onto the live blocks; rolling them back must
        restore the pristine partition and reproduce the original optimum."""
        lp = LPProblem(backend=get_backend(backend))
        x, y = lp.fresh("x"), lp.fresh("y")
        lam = lp.fresh_nonneg("lam")
        lp.add_ge(AffForm.of_var(x) - 3.0)
        lp.add_ge(AffForm.of_var(y) - 1.0)
        lp.add_eq(AffForm.of_var(lam) - 2.0)
        with reduce_override(True):
            first = lp.solve(AffForm.of_var(x) + AffForm.of_var(y))
            assert first.objective == pytest.approx(4.0)
            assert first.value_of(lam) == pytest.approx(2.0)
            cp = lp.checkpoint()
            # A cut that spans both blocks (x and y live in separate
            # components) forces a block merge on the reduced path.
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
        with reduce_override(True):
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

    @pytest.mark.skipif(
        not highs_available(),
        reason="model rebuild counters require a live HiGHS model",
    )
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


class TestBackendRegistry:
    def test_default_is_incremental_when_highs_present(self):
        backend = get_backend()
        if highs_available():
            assert isinstance(backend, IncrementalBackend)
        else:  # pragma: no cover - scipy without bundled highspy
            assert isinstance(backend, ScipyDenseBackend)

    def test_aliases_and_unknown_names(self):
        assert isinstance(get_backend("dense"), ScipyDenseBackend)
        assert "incremental" in available_backends()
        with pytest.raises(ValueError, match="unknown LP backend"):
            get_backend("simplex-by-hand")


class TestInfeasibilityDiagnostics:
    def test_ge_constant_contradiction_surfaces_note(self):
        lp = LPProblem()
        with pytest.raises(LPInfeasibleError, match="loop.inv"):
            lp.add_ge(AffForm.constant(-1.0), note="loop.inv")

    @pytest.mark.parametrize("backend", ["dense", "incremental"])
    def test_solver_infeasibility_reports_noted_groups(self, backend):
        lp = LPProblem(backend=get_backend(backend))
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
