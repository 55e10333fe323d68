"""Bounds ledger: a ``float.hex`` fingerprint of the analyzer's bounds.

Two subcommands, run from the repo root::

    PYTHONPATH=src python benchmarks/ledger.py write OUT.json
    python benchmarks/ledger.py compare OLD.json NEW.json

``write`` analyzes 346 inputs in this process and records, per input, the
``float.hex`` of the stage objective values, the stage tolerances, the
raw-moment interval ends and the central-moment interval ends (orders 2 to
the moment degree), plus the solver status list and the template-restart
bound.  An analysis that raises records the error's type instead.  Next to
the ``entries`` it records the ``build`` that wrote them: the HiGHS version
and githash, the bindings (``highspy``, or the copy scipy bundles, with the
scipy version), numpy and Python.  The inputs:

* the registry programs at their registered options;
* ``coupon_chain(4|8|16)`` and ``rdwalk_chain(2)`` at moment degree 4
  (cc4, cc8, cc16, rw2);
* ``generate_corpus(300, seed=0)``.

``compare`` prints every moved interval end as tighter, looser or crossed
(the upper end below the lower one), every changed status list and every
other changed field, and exits 1 if anything moved (0 otherwise).  It
prints both builds when they differ.  Write each tree's ledger with that
tree's ``src`` on ``PYTHONPATH``.

``tests/data/bounds_ledger.json`` is the committed ledger;
``tests/test_ledger.py`` re-derives its registry and fig10 entries.
"""

from __future__ import annotations

import argparse
import json
import sys


def _hex(value: float) -> str:
    return float(value).hex()


def build() -> dict:
    """The HiGHS build, its bindings, numpy and Python of this process."""
    import platform

    import numpy

    from repro.lp.backends import incremental

    highs = incremental._new_highs()
    if incremental._hs.__name__.startswith("highspy"):
        bindings = "highspy"
    else:
        import scipy

        bindings = f"scipy {scipy.__version__}"
    return {
        "highs": highs.version(),
        "highs_githash": highs.githash(),
        "bindings": bindings,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def describe(build: dict) -> str:
    """One line naming a :func:`build` record."""
    return (
        f"HiGHS {build['highs']} ({build['highs_githash']}) via "
        f"{build['bindings']}, numpy {build['numpy']}, Python {build['python']}"
    )


def registry_and_fig10():
    """``(name, program, options)`` for the 46 registry and fig10 inputs."""
    from repro import AnalysisOptions
    from repro.programs import registry
    from repro.programs.synthetic import coupon_chain, rdwalk_chain

    for name in sorted(registry.all_benchmarks()):
        yield name, registry.parsed(name), registry.get(name).options()
    for name, program in (
        ("cc4", coupon_chain(4)),
        ("cc8", coupon_chain(8)),
        ("cc16", coupon_chain(16)),
        ("rw2", rdwalk_chain(2)),
    ):
        yield name, program, AnalysisOptions(moment_degree=4)


def inputs():
    """``(name, program, options)`` for the 346 ledger inputs, in order."""
    from repro import AnalysisOptions
    from repro.programs.fuzz import generate_corpus

    yield from registry_and_fig10()
    for case in generate_corpus(300, seed=0):
        yield case.name, case.parse(), AnalysisOptions(
            moment_degree=case.moment_degree,
            objective_valuations=(case.valuation,),
        )


def entry(program, options) -> dict:
    """The ledger record of one analysis."""
    from repro import analyze

    try:
        result = analyze(program, options)
    except Exception as exc:  # the failure's type is the record
        return {"error": type(exc).__name__}
    restart = result.lp_restart_bound
    return {
        "objective_values": [_hex(v) for v in result.objective_values],
        "statuses": list(result.solver_statuses),
        "stage_tolerances": [_hex(v) for v in result.stage_tolerances],
        "raw": [[_hex(i.lo), _hex(i.hi)] for i in result.raw_intervals()],
        "central": [
            [_hex(i.lo), _hex(i.hi)]
            for i in (
                result.central_interval(k)
                for k in range(2, result.raw.degree + 1)
            )
        ],
        "restart_bound": None if restart is None else _hex(restart),
    }


def write(path: str) -> None:
    entries = {name: entry(program, options) for name, program, options in inputs()}
    with open(path, "w") as handle:
        json.dump({"build": build(), "entries": entries}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    failed = sum("error" in record for record in entries.values())
    print(f"wrote {len(entries)} entries ({failed} failed analyses) to {path}")


def _end_moves(name: str, field: str, old: list, new: list, first: int) -> list[str]:
    """One line per moved interval end of ``field``, whose intervals are
    the moments of order ``first``, ``first + 1``, ..."""
    lines = []
    for k, (before, after) in enumerate(zip(old, new), start=first):
        lo, hi = (float.fromhex(v) for v in after)
        for end, was, now in zip(("lo", "hi"), before, after):
            if was == now:
                continue
            a, b = float.fromhex(was), float.fromhex(now)
            verdict = "tighter" if (b > a if end == "lo" else b < a) else "looser"
            if hi < lo:
                verdict += ", crossed"
            lines.append(f"{name} {field}[{k}].{end}: {a!r} -> {b!r} ({verdict})")
    if len(old) != len(new):
        lines.append(f"{name} {field}: {len(old)} -> {len(new)} intervals")
    return lines


def differences(old: dict, new: dict) -> list[str]:
    """Every difference between two ledgers, one line each."""
    lines = []
    for name in sorted(old.keys() - new.keys()):
        lines.append(f"{name}: missing from the new ledger")
    for name in sorted(new.keys() - old.keys()):
        lines.append(f"{name}: new entry")
    for name in sorted(old.keys() & new.keys()):
        before, after = old[name], new[name]
        if before == after:
            continue
        if "error" in before or "error" in after:
            lines.append(
                f"{name}: {before.get('error', 'solved')} -> "
                f"{after.get('error', 'solved')}"
            )
            continue
        for field, first in (("raw", 0), ("central", 2)):
            lines.extend(
                _end_moves(name, field, before[field], after[field], first)
            )
        for field in ("statuses", "objective_values", "stage_tolerances",
                      "restart_bound"):
            if before[field] != after[field]:
                lines.append(f"{name} {field}: {before[field]} -> {after[field]}")
    return lines


def compare(old_path: str, new_path: str) -> int:
    with open(old_path) as handle:
        old = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    if old["build"] != new["build"]:
        print(f"old build: {describe(old['build'])}")
        print(f"new build: {describe(new['build'])}")
    old, new = old["entries"], new["entries"]
    lines = differences(old, new)
    for line in lines:
        print(line)
    print(f"{len(lines)} differences over {len(old.keys() | new.keys())} inputs")
    return 1 if lines else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("write").add_argument("out")
    diff = commands.add_parser("compare")
    diff.add_argument("old")
    diff.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.out)
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
