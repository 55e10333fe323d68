"""The committed bounds ledger, ``tests/data/bounds_ledger.json``.

``benchmarks/ledger.py write`` recorded it on 346 inputs.  These tests
re-derive entries and compare them byte for byte (``float.hex``), when the
running HiGHS build and its bindings are the ones the ledger's ``build``
header names: the 46 registry and fig10 entries in every run (about 1 s),
and all 346 under ``REPRO_LEDGER_FULL=1`` (about 10 s; CI's ``tests`` legs
set it).  Under another build they skip: another HiGHS build can pick
another vertex on a degenerate optimal face, and no other build has been
measured.  A mismatch under the same build is a finding, not a reason to
skip.  A change that moves an entry regenerates the ledger and lists each
moved end in CHANGES.md.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ledger", ROOT / "benchmarks" / "ledger.py")
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

FULL = os.environ.get("REPRO_LEDGER_FULL") == "1"


def _assert_entries_match(inputs, count: int) -> None:
    """Re-derive ``inputs`` and compare them with the committed ledger byte
    for byte under the header's HiGHS version, githash and bindings; under
    any other build, skip and name both."""
    committed = json.loads((ROOT / "tests" / "data" / "bounds_ledger.json").read_text())
    recorded, running = committed["build"], ledger.build()
    if any(recorded[key] != running[key] for key in ("highs", "highs_githash", "bindings")):
        pytest.skip(
            f"ledger recorded under {ledger.describe(recorded)}, running under "
            f"{ledger.describe(running)}: another HiGHS build can pick another "
            "vertex on a degenerate optimal face, and no other build was measured"
        )
    entries = {name: ledger.entry(program, options) for name, program, options in inputs}
    assert len(entries) == count
    expected = {name: committed["entries"][name] for name in entries}
    moved = ledger.differences(expected, entries)
    assert not moved, "\n".join(moved)


def test_registry_and_fig10_entries_match_the_committed_ledger():
    _assert_entries_match(ledger.registry_and_fig10(), 46)


@pytest.mark.skipif(not FULL, reason="set REPRO_LEDGER_FULL=1 to run")
def test_all_entries_match_the_committed_ledger():
    _assert_entries_match(ledger.inputs(), 346)


def test_compare_names_both_builds_and_each_moved_end(tmp_path, capsys):
    committed = json.loads((ROOT / "tests" / "data" / "bounds_ledger.json").read_text())
    old = {"build": committed["build"], "entries": {"rdwalk": committed["entries"]["rdwalk"]}}
    new = json.loads(json.dumps(old))
    new["build"]["highs"] = "0.0.0"
    lo, hi = new["entries"]["rdwalk"]["raw"][1]
    new["entries"]["rdwalk"]["raw"][1] = [(float.fromhex(lo) - 1.0).hex(), hi]
    paths = []
    for name, record in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(record))
    assert ledger.compare(*map(str, paths)) == 1
    out = capsys.readouterr().out
    assert f"old build: {ledger.describe(old['build'])}" in out
    assert "new build: HiGHS 0.0.0" in out
    assert "rdwalk raw[1].lo" in out and "(looser)" in out
    assert "1 differences over 1 inputs" in out
