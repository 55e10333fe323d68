"""LP solve-layer benchmark: presolve + blocks + warm lex + stacked solves.

Times ``solve_and_resolve`` — everything after constraint derivation:
the lexicographic LP solve loop plus bound resolution — on the Fig. 10
scalability programs at moment degree 4, the workload whose stage split
motivated the LP reduction layer (after PR 4 vectorized derivation, ~80%
of analysis wall time sat in the solve loop; see ``BENCH_constraints.json``
``stage_split_rdwalk_chain_2``).  Three configurations:

* ``reduced``  — the analyzer's only path: presolve over the row buffers,
  connected-component block models, per-block lexicographic pins;
* ``direct``   — ``LPProblem.solve(reduce=False)``, reached by patching
  (``_harness.direct_solves``): the raw system handed to the warm-started
  incremental backend (the solve loop the seed timings measured);
* ``seed``     — hardcoded PR-4 timings (commit ``609d83e``) from the
  machine grid this file was introduced on; the acceptance metric is
  ``seed_total / reduced_total >= 2`` on that machine, with a
  ``direct_total / reduced_total >= 1.5`` floor as the hardware-portable
  proxy (mirroring ``bench_constraint_derivation``).

``rdwalk_chain(3)`` at moment degree 4 is the degenerate-template
instance: its 4th-moment stage objective rides a ray of the certificate
polytope that only the variable box stops, and HiGHS cannot certify the
solve under the default ±1e12 box on any path.  The analyzer now solves
it on the default (reduced) path by restarting the lexicographic solve
under tighter coefficient boxes (the ``lp_restart_bound`` ladder; a
restricted certificate family is still a sound certificate family).  The
bench asserts the default path *solves* it and times that solve; the
direct path still fails — per-block pins and presolve are what make
the tighter boxes certifiable — and its outcome is recorded in the JSON
rather than hidden.  The instance stays out of the speedup ratio (the
seed analyzer could not solve it at all).

The stacked-batch section times the same-shape block stacking on the
three registry programs whose certificate systems decompose into >= 3
same-shape blocks (``absynth-c4b_t13``, ``absynth-condand``,
``absynth-rdseql``): the default stacked path vs the per-block path
(stacking suppressed), with the group sizes recorded.

Every measured round derives the constraint system in the (untimed) setup
and times ``pipeline.analyze`` on the primed pipeline, so the number is the
solve-and-resolve cost one ``analyze`` call pays after derivation.  Rounds
run via :func:`_harness.timed_median`; the recorded time is the best of k
(noise is additive; the median rides along in the JSON).  Results land in
``BENCH_solve.json`` (CI gates ``solve_total_seconds`` against the
committed baseline) together with the LP shape stats recorded from the
reduction layer itself.
"""

import contextlib
import json
import os
import pathlib

from _harness import direct_solves, emit, timed_median
from repro import AnalysisOptions, AnalysisPipeline
from repro.lp import reduce as lp_reduce
from repro.programs import registry
from repro.programs.synthetic import coupon_chain, rdwalk_chain

RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_solve.json"

#: ``solve_and_resolve`` seconds of the PR-4 analyzer (commit 609d83e,
#: reduction layer absent) on this benchmark grid at moment degree 4,
#: measured on the machine this file was introduced on.
SEED_SECONDS = {
    "coupon_chain(4)": 0.030,
    "coupon_chain(8)": 0.140,
    "coupon_chain(16)": 0.540,
    "rdwalk_chain(2)": 0.290,
}

WORKLOAD = {
    "coupon_chain(4)": lambda: coupon_chain(4),
    "coupon_chain(8)": lambda: coupon_chain(8),
    "coupon_chain(16)": lambda: coupon_chain(16),
    "rdwalk_chain(2)": lambda: rdwalk_chain(2),
}

#: Degenerate-template instance: solved via the restart ladder on the
#: default path, timed separately, never part of the speedup ratio.
RESTART_INSTANCE = ("rdwalk_chain(3)", lambda: rdwalk_chain(3))

#: Registry programs whose certificate LPs contain a >= 3-member group of
#: same-shape blocks (the stacking trigger).
STACKED_WORKLOAD = ("absynth-c4b_t13", "absynth-condand", "absynth-rdseql")

MOMENT_DEGREE = 4
ROUNDS = 5
WARMUP = 1


def _solve_seconds(make, reduced: bool, options: AnalysisOptions | None = None):
    """Best-of-k solve+resolve time through the reduction layer or not.

    Derivation (stages 1-3) is primed in the untimed per-round setup; a
    fresh pipeline per round keeps the solution caches cold, so each round
    measures one full lexicographic solve plus resolution.  The recorded
    number is the *minimum* of the measured rounds: scheduler noise is
    strictly additive, so the minimum is the tightest estimate of the true
    cost (the median rides the noise and is recorded alongside).
    """
    state: dict = {}
    if options is None:
        options = AnalysisOptions(moment_degree=MOMENT_DEGREE)

    def setup():
        pipe = AnalysisPipeline(make())
        pipe.constraint_system(options)
        state["pipe"] = pipe

    def run():
        with contextlib.nullcontext() if reduced else direct_solves():
            state["pipe"].analyze(options)

    median, times = timed_median(run, rounds=ROUNDS, warmup=WARMUP, setup=setup)
    # Shape stats from the last measured round's reducer (reduced runs only).
    shape = state["pipe"].constraint_system(options).lp.reduction_stats(
        include_times=False
    )
    return min(times), median, shape


def _restart_outcome(make, reduced: bool) -> dict:
    """One full analysis of the degenerate instance on the given path."""
    import time

    options = AnalysisOptions(moment_degree=MOMENT_DEGREE)
    pipe = AnalysisPipeline(make())
    pipe.constraint_system(options)
    started = time.perf_counter()
    with contextlib.nullcontext() if reduced else direct_solves():
        try:
            result = pipe.analyze(options)
        except Exception as exc:
            return {
                "outcome": type(exc).__name__,
                "seconds": round(time.perf_counter() - started, 3),
            }
    return {
        "outcome": "solved",
        "seconds": round(time.perf_counter() - started, 3),
        "restart_bound": result.lp_restart_bound,
        "first_moment": [
            result.raw_interval(1).lo, result.raw_interval(1).hi,
        ],
    }


def _registry_options(name: str) -> AnalysisOptions:
    bench = registry.get(name)
    return AnalysisOptions(
        moment_degree=bench.moment_degree,
        template_degree=bench.template_degree,
        degree_cap=bench.degree_cap,
        objective_valuations=(bench.valuation,) + tuple(bench.extra_valuations),
    )


def test_solve_layer(benchmark):
    benchmark.pedantic(
        lambda: _solve_seconds(WORKLOAD["coupon_chain(4)"], True),
        rounds=1, iterations=1,
    )
    reduced: dict[str, float] = {}
    direct: dict[str, float] = {}
    reduced_median: dict[str, float] = {}
    direct_median: dict[str, float] = {}
    shapes: dict[str, dict] = {}
    for name, make in WORKLOAD.items():
        reduced[name], reduced_median[name], shapes[name] = _solve_seconds(make, True)
        direct[name], direct_median[name], _ = _solve_seconds(make, False)

    # Degenerate-template instance: the default path must now solve it
    # (template-restart ladder); the direct path's outcome is
    # recorded, not asserted — it has no per-block pins to certify under.
    restart_name, restart_make = RESTART_INSTANCE
    restart = {
        "reduced": _restart_outcome(restart_make, True),
        "direct": _restart_outcome(restart_make, False),
    }

    # Stacked same-shape batches vs one model per block.
    stacked: dict[str, dict] = {}
    for name in STACKED_WORKLOAD:
        options = _registry_options(name)
        make = lambda n=name: registry.parsed(n)
        on_best, _, on_shape = _solve_seconds(make, True, options=options)
        saved_min = lp_reduce._STACK_MIN_BLOCKS
        lp_reduce._STACK_MIN_BLOCKS = 10**9  # suppress stacking
        try:
            off_best, _, _ = _solve_seconds(make, True, options=options)
        finally:
            lp_reduce._STACK_MIN_BLOCKS = saved_min
        stacked[name] = {
            "stacked_seconds": round(on_best, 4),
            "per_block_seconds": round(off_best, 4),
            "stacked_sizes": on_shape["stacked_sizes"],
        }

    reduced_total = sum(reduced.values())
    direct_total = sum(direct.values())
    seed_total = sum(SEED_SECONDS.values())
    speedup_vs_seed = seed_total / reduced_total
    speedup_vs_direct = direct_total / reduced_total
    cores = os.cpu_count() or 1

    lines = [
        f"LP solve-layer benchmark ({MOMENT_DEGREE}th-moment fig10 workload, "
        "solve_and_resolve only)",
        f"{'case':>18} {'seed (s)':>9} {'direct (s)':>11} {'reduced (s)':>12} "
        f"{'cols':>12} {'rows':>12} {'blocks':>7}",
    ]
    for name in WORKLOAD:
        shape = shapes[name]
        lines.append(
            f"{name:>18} {SEED_SECONDS[name]:>9.3f} {direct[name]:>11.3f} "
            f"{reduced[name]:>12.3f} "
            f"{shape['cols']:>5}->{shape['reduced_cols']:<5} "
            f"{shape['rows']:>5}->{shape['reduced_rows']:<5} "
            f"{shape['components']:>7}"
        )
    lines.append(
        f"{'total':>18} {seed_total:>9.3f} {direct_total:>11.3f} "
        f"{reduced_total:>12.3f}"
    )
    lines.append(
        f"speedup: {speedup_vs_seed:.2f}x vs seed, "
        f"{speedup_vs_direct:.2f}x vs reduction-off"
    )
    lines.append(
        f"{restart_name}: degenerate 4th-moment template — reduced: "
        f"{restart['reduced']['outcome']} in {restart['reduced']['seconds']}s "
        f"(restart bound {restart['reduced'].get('restart_bound')}), direct: "
        f"{restart['direct']['outcome']} (excluded from the ratio; see "
        "module docstring)"
    )
    for name, entry in stacked.items():
        lines.append(
            f"{name}: stacked {entry['stacked_seconds']}s vs per-block "
            f"{entry['per_block_seconds']}s (group sizes "
            f"{entry['stacked_sizes']})"
        )
    emit("solve_layer", lines)

    RESULT_PATH.write_text(
        json.dumps(
            {
                "workload": f"fig10 programs at moment degree {MOMENT_DEGREE}, "
                "solve_and_resolve only (derivation primed per round)",
                "seed_commit": "609d83e",
                "rounds": ROUNDS,
                "warmup": WARMUP,
                "timing": "min of rounds (median alongside), fresh "
                "pipeline per round",
                "cpu_cores": cores,
                "seed_seconds": SEED_SECONDS,
                "direct_seconds": {k: round(v, 4) for k, v in direct.items()},
                "reduced_seconds": {k: round(v, 4) for k, v in reduced.items()},
                "direct_median_seconds": {
                    k: round(v, 4) for k, v in direct_median.items()
                },
                "reduced_median_seconds": {
                    k: round(v, 4) for k, v in reduced_median.items()
                },
                "lp_shapes": shapes,
                "seed_total_seconds": round(seed_total, 4),
                "direct_total_seconds": round(direct_total, 4),
                "solve_total_seconds": round(reduced_total, 4),
                "speedup_vs_seed": round(speedup_vs_seed, 3),
                "speedup_vs_direct": round(speedup_vs_direct, 3),
                "restart_instance": {restart_name: restart},
                "stacked_batches": stacked,
            },
            indent=2,
        )
        + "\n"
    )

    # The analyzer must solve the degenerate instance on its default path
    # (template-restart ladder).  The direct path has no
    # per-block pins, so its outcome is recorded but not constrained.
    assert restart["reduced"]["outcome"] == "solved", restart

    # Acceptance: >= 2x solve_and_resolve speedup vs the PR-4 analyzer on
    # this workload.  The recorded seed timings are from the machine this
    # file was introduced on; on other hardware the direct path —
    # identical to PR-4's solve loop — is the proxy, with a floor the
    # reduction must beat.
    assert speedup_vs_seed >= 2.0 or speedup_vs_direct >= 1.5, (
        f"solve-layer speedup below the floor: {speedup_vs_seed:.2f}x vs seed "
        f"(seed {seed_total:.3f}s), {speedup_vs_direct:.2f}x vs reduction-off "
        f"(direct {direct_total:.3f}s, reduced {reduced_total:.3f}s)"
    )


def test_reduction_shrinks_the_solved_core():
    """Shape sanity independent of wall time: presolve must eliminate a
    substantial share of columns and rows on the certificate systems."""
    options = AnalysisOptions(moment_degree=MOMENT_DEGREE)
    pipe = AnalysisPipeline(rdwalk_chain(2))
    pipe.analyze(options)
    stats = pipe.constraint_system(options).lp.reduction_stats()
    assert stats["reduced_cols"] <= 0.5 * stats["cols"]
    assert stats["reduced_rows"] <= 0.5 * stats["rows"]
    assert stats["components"] >= 2
