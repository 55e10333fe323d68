"""The packages' public names resolve on first access (PEP 562)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.lp.backends as backends
import repro.service as service

PACKAGES = pytest.mark.parametrize(
    "package", [repro, backends, service], ids=lambda p: p.__name__
)


@PACKAGES
def test_every_exported_name_resolves(package):
    for name in package.__all__:
        value = getattr(package, name)
        assert getattr(value, "__name__", name) == name
    assert set(package.__all__) <= set(dir(package))


@PACKAGES
def test_unknown_attribute_raises(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name  # noqa: B018
    assert not hasattr(package, "no_such_name")


@PACKAGES
def test_star_import(package):
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)


def test_exports_are_the_defining_objects():
    from repro.analysis.pipeline import analyze
    from repro.lp.core import LPError
    from repro.service.store import JobStore
    from repro.soundness.checker import check_soundness

    assert repro.analyze is analyze
    assert repro.check_soundness is check_soundness
    assert repro.LPError is LPError
    assert service.JobStore is JobStore


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_repro_loads_only_the_export_helper():
    assert _fresh(
        "import sys, repro; print(sorted(m for m in sys.modules if m.startswith('repro')))"
    ) == "['repro', 'repro.lazy']"


def test_lp_errors_resolve_without_numpy():
    assert _fresh(
        "import sys, repro; repro.LPError; repro.LPInfeasibleError; "
        "print('numpy' in sys.modules)"
    ) == "False"
