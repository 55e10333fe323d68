"""Tests for the staged analysis pipeline and the batch driver."""

import pytest

from repro import AnalysisOptions, AnalysisPipeline, analyze, analyze_many, parse_program
from repro.programs import registry

RDWALK = """
func rdwalk() pre(x < d + 2) begin
  if x < d then
    t ~ uniform(-1, 2);
    x := x + t;
    call rdwalk;
    tick(1)
  fi
end

func main() pre(d > 0) begin
  x := 0;
  call rdwalk
end
"""


@pytest.fixture()
def pipe():
    return AnalysisPipeline(parse_program(RDWALK))


class TestStageCaching:
    def test_static_and_context_stages_are_computed_once(self, pipe):
        info = pipe.static_info()
        cmap = pipe.context_map()
        assert pipe.static_info() is info
        assert pipe.context_map() is cmap

    def test_constraint_system_cached_per_derivation_key(self, pipe):
        opts = AnalysisOptions(moment_degree=2)
        system = pipe.constraint_system(opts)
        assert pipe.constraint_system(AnalysisOptions(moment_degree=2)) is system
        other = pipe.constraint_system(AnalysisOptions(moment_degree=3))
        assert other is not system

    def test_resolve_at_new_valuation_reuses_constraints(self, pipe):
        opts_a = AnalysisOptions(moment_degree=2)
        opts_b = AnalysisOptions(
            moment_degree=2, objective_valuations=({"d": 20.0, "x": 0.0, "t": 0.0},)
        )
        result_a = pipe.analyze(opts_a)
        result_b = pipe.analyze(opts_b)
        # One derivation, two solves.
        assert len(pipe._systems) == 1
        assert len(pipe._solutions) == 2
        # Both resolved against the same templates; bounds stay sound.
        assert result_a.raw_interval(1, {"d": 10.0, "x": 0.0, "t": 0.0}).hi > 0
        assert result_b.raw_interval(1, {"d": 20.0, "x": 0.0, "t": 0.0}).hi > 0

    def test_repeated_analyze_hits_the_solution_cache(self, pipe):
        opts = AnalysisOptions(moment_degree=2)
        first = pipe.analyze(opts)
        again = pipe.analyze(opts)
        assert first.objective_values == again.objective_values
        assert len(pipe._solutions) == 1

    def test_higher_degree_reuses_static_stages(self, pipe):
        pipe.analyze(AnalysisOptions(moment_degree=2))
        info = pipe.static_info()
        pipe.analyze(AnalysisOptions(moment_degree=3))
        assert pipe.static_info() is info
        assert len(pipe._systems) == 2

    def test_lexicographic_cuts_are_rolled_back(self, pipe):
        opts = AnalysisOptions(moment_degree=3)
        system = pipe.constraint_system(opts)
        before = system.lp.num_constraints
        pipe.analyze(opts)
        assert system.lp.num_constraints == before

    def test_pipeline_matches_one_shot_analyze(self, pipe):
        opts = AnalysisOptions(moment_degree=2)
        via_pipe = pipe.analyze(opts)
        one_shot = analyze(parse_program(RDWALK), opts)
        assert via_pipe.objective_values == pytest.approx(one_shot.objective_values)


class TestAnalyzeMany:
    def _workload(self, names):
        workload = {}
        for name in names:
            bench = registry.get(name)
            options = AnalysisOptions(
                moment_degree=2,
                template_degree=bench.template_degree,
                degree_cap=bench.degree_cap,
                objective_valuations=(bench.valuation,)
                + tuple(bench.extra_valuations),
            )
            workload[name] = (registry.parsed(name), options)
        return workload

    def test_full_registry_matches_sequential_analyze(self):
        """Acceptance: the batch driver over the whole program registry
        returns the same per-program bounds as sequential ``analyze``."""
        workload = self._workload(sorted(registry.all_benchmarks()))
        sequential = {
            name: analyze(program, options)
            for name, (program, options) in workload.items()
        }
        concurrent = analyze_many(workload, jobs=4)
        assert list(concurrent) == list(workload)
        for name, result in concurrent.items():
            expected = sequential[name]
            assert result.objective_values == pytest.approx(
                expected.objective_values, rel=1e-9, abs=1e-9
            ), name
            for k in range(1, result.raw.degree + 1):
                got = result.raw_interval(k)
                want = expected.raw_interval(k)
                assert got.lo == pytest.approx(want.lo, rel=1e-9, abs=1e-9), name
                assert got.hi == pytest.approx(want.hi, rel=1e-9, abs=1e-9), name

    def test_accepts_pairs_and_default_options(self):
        program = parse_program(RDWALK)
        results = analyze_many(
            [("a", program), ("b", program)],
            options=AnalysisOptions(moment_degree=1),
            jobs=2,
        )
        assert set(results) == {"a", "b"}
        assert results["a"].raw.degree == 1

    def test_single_job_runs_sequentially(self):
        program = parse_program(RDWALK)
        results = analyze_many({"only": program}, jobs=1)
        assert results["only"].raw_interval(
            1, {"d": 10.0, "x": 0.0, "t": 0.0}
        ).hi == pytest.approx(24.0, rel=1e-3)


class TestSolverMetadata:
    def test_statuses_and_scales_recorded(self):
        result = analyze(parse_program(RDWALK), AnalysisOptions(moment_degree=2))
        assert len(result.solver_statuses) == 2
        assert len(result.objective_scales) == 2
        assert all(s.startswith(("optimal", "constant")) for s in result.solver_statuses)
        assert all(s > 0 for s in result.objective_scales)

    def test_stage_cut_margins_recorded(self):
        """Satellite of the solve-layer PR: ``objective_values`` are the
        un-padded stage optima, and the cut margin actually applied when
        pinning each stage is recorded per stage (0.0 for the final stage,
        which pins nothing)."""
        result = analyze(parse_program(RDWALK), AnalysisOptions(moment_degree=3))
        assert len(result.stage_tolerances) == 3
        assert result.stage_tolerances[-1] == 0.0
        # Stages that pinned something carry a positive margin in the
        # stage objective's own units.
        for stage, status in enumerate(result.solver_statuses[:-1]):
            if status != "constant":
                assert result.stage_tolerances[stage] > 0.0
        assert "stage_tolerances" in result.to_dict()

    def test_non_lexicographic_mode_records_single_stage(self):
        result = analyze(
            parse_program(RDWALK),
            AnalysisOptions(moment_degree=2, lexicographic=False),
        )
        assert result.stage_tolerances == [0.0]

    def test_reduction_stats_cached_with_solution(self):
        """The staged artifact carries the reduction mapping stats, so a
        cache-hitting re-analysis reports the same reduction shape."""
        pipe = AnalysisPipeline(parse_program(RDWALK))
        options = AnalysisOptions(moment_degree=2)
        first = pipe.analyze(options)
        again = pipe.analyze(options)
        assert first.lp_reduction is not None
        assert again.lp_reduction == first.lp_reduction
        assert first.lp_reduction["reduced_cols"] < first.lp_variables
