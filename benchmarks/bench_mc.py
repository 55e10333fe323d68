"""Monte-Carlo engine benchmark: scalar ``Machine`` vs. the batched engine.

The Fig. 10 scalability workload (the same program set as ``bench_cache`` /
``bench_solve``: coupon chains at N = 4/8/16 plus the chained random
walk) is simulated at 10,000 trajectories per program with both engines.
The trajectory *distributions* are identical; what is measured is wall
time.  The numbers go to ``BENCH_mc.json`` at the repo root, and CI gates
``vectorized_total_seconds`` against the committed baseline with
``check_regression.py``.

Acceptance: the vectorized engine is at least ``SPEEDUP_FLOOR``x faster on
the whole workload.
"""

import json
import pathlib
import time

import numpy as np

from _harness import emit
from repro.interp.mc import simulate_costs
from repro.programs.synthetic import coupon_chain, rdwalk_chain

RESULT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_mc.json"

WORKLOAD = {
    "coupon_chain(4)": lambda: coupon_chain(4),
    "coupon_chain(8)": lambda: coupon_chain(8),
    "coupon_chain(16)": lambda: coupon_chain(16),
    "rdwalk_chain(2)": lambda: rdwalk_chain(2),
}

TRAJECTORIES = 10_000
SPEEDUP_FLOOR = 20.0
#: The vectorized side is timed best-of; the scalar side is too slow to
#: repeat and is timed once (its noise only perturbs the ratio upward or
#: downward by a few percent, far from the floor's scale).
VECTORIZED_ROUNDS = 3


def _time_engine(program, engine: str, rounds: int) -> tuple[float, np.ndarray]:
    best = float("inf")
    costs = None
    for _ in range(rounds):
        start = time.perf_counter()
        costs = simulate_costs(program, TRAJECTORIES, seed=1, engine=engine)
        best = min(best, time.perf_counter() - start)
    return best, costs


def test_mc_engine_speedup(benchmark):
    programs = {name: make() for name, make in WORKLOAD.items()}

    scalar_times: dict[str, float] = {}
    vector_times: dict[str, float] = {}
    lines = [
        f"Monte-Carlo engine benchmark ({TRAJECTORIES} trajectories/program)",
        f"{'case':>18} {'machine (s)':>12} {'vectorized (s)':>15} "
        f"{'speedup':>8} {'mean drift':>11}",
    ]
    for name, program in programs.items():
        scalar_seconds, scalar_costs = _time_engine(program, "machine", 1)
        vector_seconds, vector_costs = _time_engine(
            program, "vectorized", VECTORIZED_ROUNDS
        )
        scalar_times[name] = scalar_seconds
        vector_times[name] = vector_seconds
        # Distributional sanity: both engines estimate the same mean.
        drift = abs(float(np.mean(scalar_costs)) - float(np.mean(vector_costs)))
        scale = max(1.0, abs(float(np.mean(scalar_costs))))
        assert drift / scale < 0.05, (name, drift)
        lines.append(
            f"{name:>18} {scalar_seconds:>12.3f} {vector_seconds:>15.4f} "
            f"{scalar_seconds / vector_seconds:>7.1f}x {drift:>11.3f}"
        )

    benchmark.pedantic(
        lambda: simulate_costs(
            programs["coupon_chain(8)"], TRAJECTORIES, seed=1, engine="vectorized"
        ),
        rounds=3,
        iterations=1,
    )

    scalar_total = sum(scalar_times.values())
    vector_total = sum(vector_times.values())
    speedup = scalar_total / vector_total
    lines.append(
        f"{'total':>18} {scalar_total:>12.3f} {vector_total:>15.4f} "
        f"{speedup:>7.1f}x"
    )
    emit("mc_engine", lines)

    RESULT_PATH.write_text(
        json.dumps(
            {
                "workload": f"fig10 programs at {TRAJECTORIES} trajectories",
                "machine_seconds": {k: round(v, 4) for k, v in scalar_times.items()},
                "vectorized_seconds": {
                    k: round(v, 4) for k, v in vector_times.items()
                },
                "machine_total_seconds": round(scalar_total, 4),
                "vectorized_total_seconds": round(vector_total, 4),
                "speedup": round(speedup, 2),
                "speedup_floor": SPEEDUP_FLOOR,
            },
            indent=2,
        )
        + "\n"
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized engine only {speedup:.1f}x faster than the scalar "
        f"machine on the fig10 workload (machine {scalar_total:.3f}s, "
        f"vectorized {vector_total:.3f}s); floor is {SPEEDUP_FLOOR}x"
    )
