"""Ablations of four design choices of the analyzer:

* lexicographic vs. single-blob objective,
* template degree (linear templates cannot certify quadratic behaviour),
* interval (two-sided) analysis vs. upper-only mode for tail bounds,
* moment-polymorphic recursion: levels beyond 0 are what make non-tail
  recursion analyzable at higher moments.
"""

import pytest

from _harness import emit, fmt, run_registered
from repro import AnalysisOptions, LPError, analyze
from repro.programs import registry
from repro.tail.bounds import cantelli_upper_tail, markov_tail

VAL = {"d": 10.0, "x": 0.0, "t": 0.0}


def test_ablation_lexicographic_objective(benchmark):
    lex = benchmark.pedantic(
        lambda: run_registered("rdwalk"), rounds=1, iterations=1
    )
    blob = run_registered("rdwalk", lexicographic=False)
    lines = [
        "Ablation: lexicographic vs. summed objective (rdwalk, d=10)",
        f"  lexicographic: E <= {fmt(lex.raw_interval(1, VAL).hi)}, "
        f"E2 <= {fmt(lex.raw_interval(2, VAL).hi)}",
        f"  summed:        E <= {fmt(blob.raw_interval(1, VAL).hi)}, "
        f"E2 <= {fmt(blob.raw_interval(2, VAL).hi)}",
    ]
    emit("ablation_objective", lines)
    # Lexicographic never loses on the first moment.
    assert lex.raw_interval(1, VAL).hi <= blob.raw_interval(1, VAL).hi + 1e-6


def test_ablation_template_degree(benchmark):
    """Quadratic programs need degree-2 first-moment templates."""
    bench = registry.get("absynth-rdbub")
    quadratic = benchmark.pedantic(
        lambda: run_registered("absynth-rdbub"), rounds=1, iterations=1
    )
    assert quadratic.raw_interval(1, bench.valuation).hi == pytest.approx(
        192.0, rel=1e-3
    )
    with pytest.raises(LPError):
        analyze(
            registry.parsed("absynth-rdbub"),
            AnalysisOptions(
                moment_degree=1,
                template_degree=1,  # linear template: no 3n^2 potential
                objective_valuations=(bench.valuation,),
            ),
        )
    emit(
        "ablation_degree",
        [
            "Ablation: template degree on rdbub (true cost 3n^2)",
            "  degree 2: bound 3n^2 found;  degree 1: LP infeasible (as expected)",
        ],
    )


def test_ablation_interval_vs_upper_only(benchmark):
    """Tail-bound payoff of the interval analysis (the paper's headline)."""
    full = benchmark.pedantic(
        lambda: run_registered("rdwalk"), rounds=1, iterations=1
    )
    raw_only = run_registered("rdwalk", upper_only=True)
    d = 40.0
    val = {"d": d, "x": 0.0, "t": 0.0}
    threshold = 4 * d
    markov = markov_tail(raw_only.raw_interval(2, val).hi, 2, threshold)
    cantelli = cantelli_upper_tail(
        full.variance(val).hi, full.raw_interval(1, val).hi, threshold
    )
    emit(
        "ablation_interval",
        [
            "Ablation: tail bound P[tick >= 4d] at d = 40",
            f"  upper-only raw moments + Markov:   {markov:.4f}",
            f"  interval analysis + Cantelli:      {cantelli:.4f}",
        ],
    )
    assert cantelli < markov


def test_ablation_moment_polymorphic_recursion(benchmark):
    """Non-tail recursion at m = 2 exercises spec levels 0..2; the bound on
    the second moment must match the monomorphically-unreachable Fig. 3
    value (4d^2 + 22d + 28)."""
    result = benchmark.pedantic(
        lambda: run_registered("rdwalk"), rounds=1, iterations=1
    )
    spec = result.functions["rdwalk"]
    # The level summaries realize the elimination sequence of Ex. 2.6:
    # level-2 spec is cost-insensitive (pre == post on the 2nd component).
    level2 = spec.pres[2].intervals[2].hi
    post2 = spec.posts[2].intervals[2].hi
    val = {"d": 10.0, "x": 0.0, "t": 0.0}
    assert level2.evaluate(val) == pytest.approx(post2.evaluate(val), rel=1e-4)
    assert result.raw_interval(2, VAL).hi == pytest.approx(648.0, rel=1e-3)
    emit(
        "ablation_polymorphic",
        [
            "Ablation: moment-polymorphic recursion on rdwalk",
            "  level-2 spec is a fixpoint on the 2nd component "
            "(the <0,0,2> -> <0,0,2> step of Ex. 2.6)",
            f"  E[tick^2] <= {result.upper_str(2)} (Fig. 3: 4(d-x)^2+22(d-x)+28)",
        ],
    )
