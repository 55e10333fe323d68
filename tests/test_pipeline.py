"""Tests for the staged analysis pipeline and the batch driver."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro import AnalysisOptions, AnalysisPipeline, analyze, parse_program, run_batch
from repro.analysis.pipeline import _feasible_point
from repro.logic.context import Context
from repro.logic.linear import LinExpr, LinIneq
from repro.lp.backends.highs_core import scipy_highs_core
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

    def test_constraint_system_pickles_with_a_fresh_lock(self, pipe):
        """The system stage stays disk-cacheable: the pickle leaves the
        lock behind and the copy gets its own."""
        import pickle

        system = pipe.constraint_system(AnalysisOptions(moment_degree=2))
        with system.lock:
            clone = pickle.loads(pickle.dumps(system))
        assert not clone.lock.locked()
        assert clone.num_constraints == system.num_constraints

    def test_cached_system_resolves_like_a_fresh_one(self):
        """A solve at one valuation protects columns and builds a reduction
        on the cached system; a later solve at another valuation must not
        inherit them, so the solve window drops both as it closes."""
        registered = registry.get("timing-t0").options()
        pipe = AnalysisPipeline(registry.parsed("timing-t0"))
        pipe.analyze(AnalysisOptions())  # the automatic valuations first
        again = pipe.analyze(registered)
        fresh = AnalysisPipeline(registry.parsed("timing-t0")).analyze(registered)

        def untimed(stats):
            return {k: v for k, v in stats.items() if not k.endswith("_seconds")}

        assert _fingerprint(again) == _fingerprint(fresh)
        assert untimed(again.lp_reduction) == untimed(fresh.lp_reduction)

    def test_no_cached_system_keeps_a_reducer(self):
        """The reducer and its live block models live only inside the
        locked solve window: after ``analyze`` no cached system holds one.
        Checked on the registry programs at their registered options and
        on the fig10 programs at m=4."""
        from repro.programs.synthetic import coupon_chain, rdwalk_chain

        inputs = [
            (name, registry.parsed(name), registry.get(name).options())
            for name in sorted(registry.all_benchmarks())
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
            pipe = AnalysisPipeline(program)
            pipe.analyze(options)
            assert pipe._systems, name
            for system in pipe._systems.values():
                assert system.lp._reducer is None, name

    def test_an_infeasible_solve_releases_its_reducer(self):
        """The window drops the reducer on an exception too: absynth-rdbub
        needs quadratic templates, so at d=1 its solve raises."""
        from repro.lp.core import LPInfeasibleError

        options = replace(
            registry.get("absynth-rdbub").options(),
            moment_degree=1,
            template_degree=1,
        )
        pipe = AnalysisPipeline(registry.parsed("absynth-rdbub"))
        with pytest.raises(LPInfeasibleError):
            pipe.analyze(options)
        (system,) = pipe._systems.values()
        assert system.lp._reducer is None

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


def _registry_workload(shift: float = 0.0):
    """The 42 registry programs at their registered options, with every
    objective valuation moved by ``shift`` in each variable."""
    workload = {}
    for name in sorted(registry.all_benchmarks()):
        options = registry.get(name).options()
        workload[name] = (
            registry.parsed(name),
            replace(options, objective_valuations=tuple(
                {v: x + shift for v, x in valuation.items()}
                for valuation in options.objective_valuations
            )),
        )
    return workload


def _fingerprint(result):
    """What the bounds rest on, bit for bit: the stage optima and every raw
    interval end as ``float.hex``."""
    return (
        [float(v).hex() for v in result.objective_values],
        [(float(i.lo).hex(), float(i.hi).hex()) for i in result.raw_intervals()],
    )


@pytest.fixture(scope="module")
def registry_reference():
    """One sequential pass: fresh pipelines, no cache."""
    workload = _registry_workload()
    return workload, {
        name: _fingerprint(analyze(program, options))
        for name, (program, options) in workload.items()
    }


class TestRegistryBatch:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_full_registry_matches_sequential_analyze(self, registry_reference, jobs):
        """Acceptance: a batch over the whole program registry returns
        bit-identical bounds to sequential ``analyze``, in this process and
        on worker processes."""
        workload, expected = registry_reference
        report = run_batch(workload, jobs=jobs)
        assert report.ok, [item.error for item in report.failures]
        assert report.jobs == jobs
        assert [item.name for item in report.items] == list(workload)
        for item in report.items:
            assert _fingerprint(item.result) == expected[item.name], item.name


#: Analysed only by forked children: its variable names, contexts and
#: templates are new to the parent, so the child interns monomials,
#: context keys, certificate bases and substitution plans of its own.
FORK_ONLY = """
func hop() pre(qz < qw + 3) begin
  if qz < qw then
    qs ~ uniform(0, 2);
    qz := qz + qs;
    call hop;
    tick(2)
  fi
end

func main() pre(qw > 1) begin
  qz := 0;
  call hop
end
"""


def _analyze_fork_only_program():
    AnalysisPipeline(parse_program(FORK_ONLY)).analyze(
        AnalysisOptions(moment_degree=2)
    )


def _module_lock(name):
    from repro.logic import context, handelman
    from repro.poly import kernel, monomial

    return {
        "monomial": monomial._TABLE.lock,
        "kernel": kernel._PLAN_LOCK,
        "handelman": handelman._BASIS_LOCK,
        "context": context._KEY_LOCK,
    }[name]


class TestConcurrentSolves:
    @pytest.mark.parametrize("name", ["monomial", "kernel", "handelman", "context"])
    def test_forked_child_gets_free_module_locks(self, name):
        """A worker forked while another thread holds a module lock (the
        server respawning a fleet worker mid-request) must still analyse
        a program that needs that lock."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with _module_lock(name):
            child = ctx.Process(target=_analyze_fork_only_program)
            child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0

    def test_waiting_for_the_solve_lock_counts_against_the_deadline(self):
        import threading
        import time

        from repro.deadline import AnalysisTimeout

        options = AnalysisOptions(
            moment_degree=1,
            deadline_seconds=0.3,
            objective_valuations=({"d": 10.0, "x": 0.0, "t": 0.0},),
        )
        pipe = AnalysisPipeline(parse_program(RDWALK))
        system = pipe.constraint_system(options)  # derived outside the budget
        stages = []

        def analyze_with_deadline():
            try:
                pipe.analyze(options)
            except AnalysisTimeout as exc:
                stages.append(exc.stage)

        with system.lock:  # another thread mid-solve of this system
            waiter = threading.Thread(target=analyze_with_deadline)
            waiter.start()
            time.sleep(0.6)
        waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert len(stages) == 1 and stages[0].startswith("lp."), stages

    def test_threads_do_not_change_bounds(self, registry_reference):
        """Analyses on concurrent threads (the server's handler threads) get
        the bounds a single thread gets: overlapping solves used to move
        optima, on a different handful of programs each run."""
        workload, expected = registry_reference

        def fingerprint(name):
            program, options = workload[name]
            return _fingerprint(AnalysisPipeline(program).analyze(options))

        for _ in range(6):
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = dict(zip(workload, pool.map(fingerprint, workload)))
            moved = [name for name in workload if got[name] != expected[name]]
            assert not moved

    def test_threads_sharing_a_cache_get_sequential_bounds(self, registry_reference):
        """Threads on pipelines that share one artifact cache (``repro
        serve``'s ``/analyze`` next to an inline ``/batch``) solve the same
        constraint system objects, each program at two valuations; every
        answer is the one a fresh sequential ``analyze`` gives."""
        from repro.service.cache import ArtifactCache

        workloads = {0.0: registry_reference[0], 1.0: _registry_workload(1.0)}
        expected = {(0.0, name): fp for name, fp in registry_reference[1].items()}
        expected.update(
            ((1.0, name), _fingerprint(analyze(program, options)))
            for name, (program, options) in workloads[1.0].items()
        )
        cache = ArtifactCache(disk=False)

        def fingerprint(task):
            shift, name = task
            program, options = workloads[shift][name]
            return _fingerprint(
                AnalysisPipeline(program, artifacts=cache).analyze(options)
            )

        tasks = [(shift, name) for name in registry_reference[0] for shift in (0.0, 1.0)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the threads finely
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = dict(zip(tasks, pool.map(fingerprint, tasks)))
        finally:
            sys.setswitchinterval(interval)
        moved = [task for task in tasks if got[task] != expected[task]]
        assert not moved

    def test_bounds_do_not_read_the_clock(self, monkeypatch):
        """The solve path takes no decision on a timing: a frozen clock and
        one that steps a whole second per reading give the same bounds."""
        import itertools
        import time

        from repro.programs.synthetic import rdwalk_chain

        program = rdwalk_chain(2)
        options = AnalysisOptions(moment_degree=4)
        fingerprints = []
        for clock in (lambda: 0.0, itertools.count().__next__):
            monkeypatch.setattr(time, "perf_counter", clock)
            fingerprints.append(_fingerprint(analyze(program, options)))
        assert fingerprints[0] == fingerprints[1]


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


POINTS = json.loads(
    (Path(__file__).parent / "data" / "chebyshev_points.json").read_text()
)["points"]


def _context(rows) -> Context:
    return Context(tuple(
        LinIneq(LinExpr(tuple((v, float.fromhex(c)) for v, c in coeffs), float.fromhex(const)))
        for const, coeffs in rows
    ))


class TestAutomaticValuations:
    """Without ``objective_valuations`` the objective is evaluated at the
    Chebyshev point of main's pre-condition.  The recorded points are what
    ``linprog(method="highs")`` returned; the ``_core`` path must give the
    same floats."""

    def test_recorded_points_reproduce_exactly(self, capfd):
        groups = {e["group"] for e in POINTS.values()}
        assert len(POINTS) == 91 and groups == {"registry", "corpus"}
        for name, entry in POINTS.items():
            point = _feasible_point(_context(entry["context"]))
            assert {v: x.hex() for v, x in point.items()} == entry["point"], name
        # HiGHS logs to stdout unless told not to; CLI output must stay clean.
        assert capfd.readouterr().out == ""

    def test_registry_contexts_are_the_recorded_ones(self):
        for name, entry in POINTS.items():
            if entry["group"] != "registry":
                continue
            program = registry.parsed(name)
            pre = AnalysisPipeline(program).context_map().fun_pre[program.main]
            assert pre.ineqs == _context(entry["context"]).ineqs, name

    def test_points_use_scipys_bundled_highs(self):
        # Even with highspy installed, the point comes from the binding the
        # recorded points were solved with.
        assert scipy_highs_core().__name__ == "scipy.optimize._highspy._core"

    def test_no_variables_or_bottom(self):
        assert _feasible_point(Context.top()) == {}
        assert _feasible_point(Context.bot()) == {}

