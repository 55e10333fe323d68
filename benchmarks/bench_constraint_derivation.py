"""Constraint-derivation microbenchmark: the vectorized symbolic kernel.

Times stage 3 of the pipeline (``AnalysisPipeline.constraint_system``) in
isolation on the Fig. 10 scalability programs at moment degree 4 — the
workload whose profile motivated the symbolic kernel (interned monomials,
memoized certificate bases, vectorized λ-column emission, substitution
plans).

Every measured round resets the process-wide certificate-basis and
substitution-plan memo tables, so the numbers are honest cold-start
derivations (within-run reuse only — exactly what one ``analyze`` call
sees).  Timing is median-of-k via :func:`_harness.timed_median`.

Results land in ``BENCH_constraints.json`` at the repo root (CI gates the
``derivation_total_seconds`` key against the committed baseline) and also
record the per-stage static/context/derive/solve split of a full analysis.
"""

import json
import pathlib
import time

from _harness import emit, timed_median
from repro import AnalysisOptions, AnalysisPipeline
from repro.logic.handelman import clear_certificate_caches
from repro.poly.kernel import clear_plan_caches
from repro.programs.synthetic import coupon_chain, rdwalk_chain

RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_constraints.json"

WORKLOAD = {
    "coupon_chain(4)": lambda: coupon_chain(4),
    "coupon_chain(8)": lambda: coupon_chain(8),
    "coupon_chain(16)": lambda: coupon_chain(16),
    "rdwalk_chain(2)": lambda: rdwalk_chain(2),
    "rdwalk_chain(3)": lambda: rdwalk_chain(3),
}

MOMENT_DEGREE = 4
ROUNDS = 3
WARMUP = 1


def _reset_memos() -> None:
    clear_certificate_caches()
    clear_plan_caches()


def _derivation_seconds(make) -> float:
    """Median cold-memo derivation time.

    Stages 1+2 are primed in the (untimed) per-round setup: this benchmark
    times constraint derivation, not parsing/abstract interpretation.  A
    fresh pipeline per round keeps the stage-3 instance cache cold.
    """
    state: dict = {}

    def setup():
        _reset_memos()
        pipe = AnalysisPipeline(make())
        pipe.static_info()
        pipe.context_map()
        state["pipe"] = pipe

    def run():
        state["pipe"].constraint_system(AnalysisOptions(moment_degree=MOMENT_DEGREE))

    median, _ = timed_median(run, rounds=ROUNDS, warmup=WARMUP, setup=setup)
    return median


def _stage_split(make) -> dict[str, float]:
    """Per-stage wall times of one cold full analysis."""
    _reset_memos()
    pipe = AnalysisPipeline(make())
    options = AnalysisOptions(moment_degree=MOMENT_DEGREE)
    split = {}
    start = time.perf_counter()
    pipe.static_info()
    split["static"] = time.perf_counter() - start
    start = time.perf_counter()
    pipe.context_map()
    split["context"] = time.perf_counter() - start
    start = time.perf_counter()
    pipe.constraint_system(options)
    split["constraints"] = time.perf_counter() - start
    start = time.perf_counter()
    pipe.analyze(options)
    split["solve_and_resolve"] = time.perf_counter() - start
    return {k: round(v, 4) for k, v in split.items()}


def test_constraint_derivation(benchmark):
    benchmark.pedantic(
        lambda: _derivation_seconds(WORKLOAD["coupon_chain(4)"]),
        rounds=1, iterations=1,
    )
    kernel = {n: _derivation_seconds(m) for n, m in WORKLOAD.items()}
    split = _stage_split(WORKLOAD["rdwalk_chain(2)"])
    kernel_total = sum(kernel.values())

    lines = [
        f"Constraint-derivation benchmark ({MOMENT_DEGREE}th-moment fig10 workload)",
        f"{'case':>18} {'derive (s)':>11}",
    ]
    for name in WORKLOAD:
        lines.append(f"{name:>18} {kernel[name]:>11.3f}")
    lines.append(f"{'total':>18} {kernel_total:>11.3f}")
    lines.append(
        "rdwalk_chain(2) stage split: "
        + ", ".join(f"{k} {v:.3f}s" for k, v in split.items())
    )
    emit("constraint_derivation", lines)

    RESULT_PATH.write_text(
        json.dumps(
            {
                "workload": f"fig10 programs at moment degree {MOMENT_DEGREE}, "
                "stage-3 derivation only",
                "rounds": ROUNDS,
                "warmup": WARMUP,
                "timing": "median of rounds, memo tables cleared per round",
                "kernel_seconds": {k: round(v, 4) for k, v in kernel.items()},
                "derivation_total_seconds": round(kernel_total, 4),
                "stage_split_rdwalk_chain_2": split,
            },
            indent=2,
        )
        + "\n"
    )


def test_certificate_basis_is_memoized():
    """One derivation computes each (context, degree) product set once."""
    from repro.logic.handelman import certificate_cache_stats

    _reset_memos()
    pipe = AnalysisPipeline(rdwalk_chain(2))
    pipe.constraint_system(AnalysisOptions(moment_degree=MOMENT_DEGREE))
    bases = certificate_cache_stats()["bases"]
    assert 0 < bases < 100, f"unexpected basis cache population: {bases}"
