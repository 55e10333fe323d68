"""Benchmark regression gate: fail CI when a fresh record is too slow.

Two modes:

**Single pair** — compare one numeric key of a freshly produced
``BENCH_*.json`` against a committed baseline and exit non-zero when the
fresh value exceeds the baseline by more than ``--threshold`` (a slowdown;
getting faster never fails)::

    python benchmarks/check_regression.py baseline.json BENCH_solve.json \
        --key solve_total_seconds --threshold 0.25

**Consolidated** (``--all``) — one invocation gates every known
``BENCH_*.json`` at once against a directory of saved baselines::

    mkdir /tmp/bench_baselines && cp BENCH_*.json /tmp/bench_baselines/
    # ... run whichever benchmarks this CI leg runs ...
    python benchmarks/check_regression.py --all \
        --baseline-dir /tmp/bench_baselines --threshold 0.25

``GATES`` maps each record file to its gated keys (some with a per-key
threshold override where the measurement is noisier).  A benchmark that a
CI leg skips leaves the committed record untouched, so baseline == fresh
and the gate reads an exact 0.0% change — the consolidated call is safe on
every leg without per-leg key lists.  Records absent from *both* sides are
skipped with a note; a key missing from a present record is an error
(exit 2), because that means the record format drifted.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: record file -> ((key, threshold-override-or-None), ...)
GATES: dict[str, tuple[tuple[str, float | None], ...]] = {
    "BENCH_constraints.json": (("derivation_total_seconds", None),),
    "BENCH_solve.json": (("solve_total_seconds", None),),
    "BENCH_mc.json": (("vectorized_total_seconds", None),),
    # Queue totals are poll-granular and small; give them a wider budget.
    "BENCH_queue.json": (("queue_batch_total_seconds", 0.75),),
    # Campaign sweeps ride the same fleet: same wide budget.
    "BENCH_fuzz.json": (("campaign_total_seconds", 0.75),),
}


def check_pair(
    baseline_path: str | pathlib.Path,
    fresh_path: str | pathlib.Path,
    key: str,
    threshold: float,
    label: str = "",
) -> int:
    """Gate one key of one record pair.  Returns a process exit code."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    with open(fresh_path) as handle:
        fresh = json.load(handle)

    prefix = f"regression gate{f' [{label}]' if label else ''}"
    try:
        base_value = float(baseline[key])
        fresh_value = float(fresh[key])
    except KeyError as missing:
        print(f"{prefix}: key {missing} absent from a record", file=sys.stderr)
        return 2
    if base_value <= 0:
        print(f"{prefix}: baseline {key} is {base_value}; skipping")
        return 0

    change = fresh_value / base_value - 1.0
    verdict = "slower" if change > 0 else "faster"
    print(
        f"{prefix}: {key} baseline {base_value:.3f}s -> fresh "
        f"{fresh_value:.3f}s ({abs(change):.1%} {verdict}; threshold "
        f"{threshold:.0%})"
    )
    if change > threshold:
        print(
            f"FAIL: {key} regressed beyond the {threshold:.0%} budget",
            file=sys.stderr,
        )
        return 1
    return 0


def check_all(baseline_dir: pathlib.Path, records_dir: pathlib.Path, threshold: float) -> int:
    """Gate every known record; worst exit code wins."""
    worst = 0
    for name, keys in sorted(GATES.items()):
        baseline = baseline_dir / name
        fresh = records_dir / name
        if not baseline.exists() or not fresh.exists():
            side = "baseline" if not baseline.exists() else "fresh record"
            print(f"regression gate [{name}]: no {side}; skipping")
            continue
        for key, override in keys:
            code = check_pair(
                baseline, fresh, key, override if override is not None else threshold,
                label=name,
            )
            worst = max(worst, code)
    return worst


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "baseline", nargs="?", help="committed benchmark record (JSON)"
    )
    parser.add_argument(
        "fresh", nargs="?", help="freshly produced benchmark record (JSON)"
    )
    parser.add_argument(
        "--all", action="store_true",
        help="consolidated mode: gate every known BENCH_*.json at once",
    )
    parser.add_argument(
        "--baseline-dir", type=pathlib.Path, default=None, metavar="DIR",
        help="(--all) directory holding the saved baseline records",
    )
    parser.add_argument(
        "--records-dir", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parents[1], metavar="DIR",
        help="(--all) directory holding the fresh records (default: repo root)",
    )
    parser.add_argument(
        "--key", help="numeric field to compare (single-pair mode)"
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="maximum tolerated relative slowdown (default 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)

    if args.all:
        if args.baseline_dir is None:
            parser.error("--all requires --baseline-dir")
        return check_all(args.baseline_dir, args.records_dir, args.threshold)
    if args.baseline is None or args.fresh is None or args.key is None:
        parser.error("need baseline and fresh records and --key (or --all)")
    return check_pair(args.baseline, args.fresh, args.key, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
