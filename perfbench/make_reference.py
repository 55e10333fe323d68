"""Regenerate ``perfbench/reference.json``: the benchmark's frozen inputs and
the reference values every output is checked against.

Run from the repository root (deterministic; takes about a minute)::

    PYTHONPATH=src python3 perfbench/make_reference.py

The file holds three program families:

* ``fig10`` — ``coupon_chain(4|8|16)`` and ``rdwalk_chain(2)`` at m=4.  The
  coupon chains carry closed forms, E[C] = n·H_n and
  V[C] = n²·Σ1/i² − n·H_n.
* ``registry`` — the 42 registered programs with their registered options,
  plus the ``examples/specs`` spec that covers each one (for ``/check``).
* ``fuzz`` — the seed-0 fuzz corpus, ``generate_corpus(POOL, seed=0)``.

Every non-closed-form reference is a Monte-Carlo estimate from
:mod:`repro.interp.vectorized` under the differential harness's nondet
policies (random, plus left/right when the program uses ``ndet``), with a
``z·sd/√n`` margin: one band ``[estimate − margin, estimate + margin]`` per
policy.  An analyzer interval passes when it meets every band.  Programs
whose in-process analysis misses a band here are left out of the inputs,
so the benchmark starts from outputs that pass; the fuzz cases the
analyzer proves infeasible (6 of the 1000) stay in, marked
``"expect": "infeasible"``: their HTTP 422 or dead-lettered job is correct.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.analysis.pipeline import AnalysisPipeline
from repro.interp.mc import statistics_from_costs
from repro.interp.vectorized import VectorizedMachine
from repro.lang.parser import parse_program
from repro.lp.core import LPInfeasibleError
from repro.policy.evaluate import evaluate_spec
from repro.policy.suite import load_suite, options_for, resolve_programs
from repro.programs.fuzz import generate_corpus
from repro.programs.registry import all_benchmarks
from repro.programs.synthetic import coupon_chain_source, rdwalk_chain_source
from repro.service.jobs import options_from_dict, options_to_dict
from repro.soundness.differential import program_uses_ndet
from repro.tail.bounds import costs_nonnegative

HERE = Path(__file__).resolve().parent
OUT = HERE / "reference.json"
SPECS = HERE.parent / "examples" / "specs"

FUZZ_POOL = 1000
SAMPLES = 4000
Z = 5.0
MAX_STEPS = 200_000
FIG10_MOMENTS = 4


def _band(estimate: float, stderr: float) -> list[float]:
    margin = Z * stderr + 1e-6 * max(1.0, abs(estimate))
    return [estimate - margin, estimate + margin]


def mc_bands(program, initial: dict, seed: int, degree: int) -> dict:
    """One band per nondet policy for E[C] and (degree >= 2) V[C]."""
    policies = ("random", "left", "right") if program_uses_ndet(program) else ("random",)
    bands: dict[str, list] = {"E": [], "V": []}
    for policy in policies:
        run = VectorizedMachine(program, nondet_policy=policy).run(
            SAMPLES, np.random.default_rng(seed), initial=initial, max_steps=MAX_STEPS
        )
        if not run.terminated.all():
            raise RuntimeError(f"simulation did not terminate under {policy}")
        stats = statistics_from_costs(run.costs, degree=max(2, degree))
        bands["E"].append(_band(float(stats.raw[1]), float(stats.moment_stderr(1))))
        if degree >= 2:
            centered = (stats.costs - stats.mean) ** 2
            se = float(np.std(centered) / np.sqrt(len(centered)))
            bands["V"].append(_band(float(stats.central[2]), se))
    if degree < 2:
        del bands["V"]
    return bands


def coupon_bands(n: int) -> dict:
    harmonic = sum(1.0 / i for i in range(1, n + 1))
    mean = n * harmonic
    var = n * n * sum(1.0 / (i * i) for i in range(1, n + 1)) - mean
    return {"E": [_band(mean, 0.0)], "V": [_band(var, 0.0)]}


def meets(interval, bands: list) -> bool:
    lo, hi = interval
    return all(lo <= b_hi and b_lo <= hi for b_lo, b_hi in bands)


def lp_rows(source: str, options: dict) -> int:
    """Rows of the derived LP: a machine-independent size for stratifying
    draws, so runs with different seeds get the same mix of sizes."""
    pipeline = AnalysisPipeline(parse_program(source))
    return pipeline.constraint_system(options_from_dict(options)).num_constraints


def analysis_passes(source: str, options: dict, bands: dict) -> bool:
    result = AnalysisPipeline(parse_program(source)).analyze(options_from_dict(options))
    evaluated = result.to_dict()["evaluated"]
    ok = meets(evaluated["E[C^1]"], bands["E"])
    if "V" in bands:
        ok = ok and meets(evaluated["V[C]"], bands["V"])
    return ok


def cli_args(moments: int, degree: int, cap, valuation: dict) -> list[str]:
    args = ["--moments", str(moments), "--degree", str(degree)]
    if cap is not None:
        args += ["--degree-cap", str(cap)]
    if valuation:
        args += ["--at", ",".join(f"{k}={v:g}" for k, v in sorted(valuation.items()))]
    return args


def fig10_entries() -> dict:
    entries = {}
    for n in (4, 8, 16):
        entries[f"coupon_chain-{n}"] = {
            "kind": "fig10",
            "source": coupon_chain_source(n),
            "bands": coupon_bands(n),
        }
    source = rdwalk_chain_source(2)
    entries["rdwalk_chain-2"] = {
        "kind": "fig10",
        "source": source,
        "bands": mc_bands(parse_program(source), {}, 17, FIG10_MOMENTS),
    }
    for entry in entries.values():
        entry["cli"] = cli_args(FIG10_MOMENTS, 1, None, {})
        entry["options"] = {"moments": FIG10_MOMENTS}
    return entries


def spec_for_programs() -> dict:
    """Registry name -> (spec text, spec) of the first covering spec file."""
    covering = {}
    for relpath, spec in load_suite(SPECS):
        text = (SPECS / relpath).read_text()
        for name in resolve_programs(spec):
            covering.setdefault(name, (text, spec))
    return covering


def registry_entries() -> dict:
    specs = spec_for_programs()
    entries = {}
    for index, (name, bench) in enumerate(sorted(all_benchmarks().items())):
        program = bench.parse()
        options = {"moments": bench.moment_degree, "degree": bench.template_degree}
        if bench.degree_cap is not None:
            options["degree_cap"] = bench.degree_cap
        valuations = [dict(bench.valuation)] if bench.valuation else []
        valuations += [dict(v) for v in bench.extra_valuations]
        if valuations:
            options["at"] = valuations[0] if len(valuations) == 1 else valuations
        entry = {
            "kind": "registry",
            "source": bench.source,
            "cli": cli_args(
                bench.moment_degree, bench.template_degree, bench.degree_cap,
                bench.valuation,
            ),
            "options": options,
            "bands": mc_bands(
                program, dict(bench.sim_init), 1000 + index, bench.moment_degree
            ),
            # What `repro analyze --at` builds: the first valuation only.
            "cli_options": {
                **{k: v for k, v in options.items() if k != "at"},
                **({"at": dict(bench.valuation)} if bench.valuation else {}),
            },
        }
        if name in specs:
            text, spec = specs[name]
            check_options = options_to_dict(options_for(spec, bench))
            result = AnalysisPipeline(program).analyze(options_from_dict(check_options))
            check = evaluate_spec(
                spec, result, program=name, nonnegative_cost=costs_nonnegative(program)
            )
            entry["check"] = {
                "spec": text, "options": check_options, "verdict": check.verdict,
            }
        entries[name] = entry
    return entries


def fuzz_entries() -> dict:
    entries = {}
    for case in generate_corpus(FUZZ_POOL, seed=0):
        options = {"moments": case.moment_degree, "at": dict(case.valuation)}
        entries[case.name] = {
            "kind": "fuzz",
            "source": case.source,
            "options": options,
            "bands": mc_bands(
                case.parse(), dict(case.initial), case.seed + 17, case.moment_degree
            ),
        }
    return entries


def main() -> int:
    programs = {**fig10_entries(), **registry_entries(), **fuzz_entries()}
    kept = {}
    for name, entry in programs.items():
        entry["lp_rows"] = lp_rows(entry["source"], entry["options"])
        checks = [entry["options"], entry.pop("cli_options", entry["options"])]
        if "check" in entry:
            checks.append(entry["check"]["options"])
        try:
            ok = all(analysis_passes(entry["source"], opts, entry["bands"]) for opts in checks)
        except LPInfeasibleError:
            if entry["kind"] != "fuzz":
                raise
            # A known-infeasible corpus case: kept, and its HTTP 422 (or
            # dead-lettered job) is the expected output.
            entry["expect"] = "infeasible"
            del entry["bands"]
            kept[name] = entry
            continue
        except Exception as exc:  # any other analyzer failure leaves it out
            print(f"dropped {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        if not ok:
            print(f"dropped {name}: analysis misses its reference band", file=sys.stderr)
            continue
        kept[name] = entry
    document = {
        "generator": {
            "command": "PYTHONPATH=src python3 perfbench/make_reference.py",
            "fuzz_pool": f"generate_corpus({FUZZ_POOL}, seed=0)",
            "mc_samples": SAMPLES,
            "z": Z,
        },
        "programs": kept,
    }
    OUT.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    counts = {}
    for entry in kept.values():
        counts[entry["kind"]] = counts.get(entry["kind"], 0) + 1
    print(f"wrote {OUT.name}: {counts}, dropped {len(programs) - len(kept)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
