"""scipy's bundled HiGHS binding, loaded without importing ``scipy.optimize``.

scipy >= 1.15 ships the HiGHS pybind11 extension as
``scipy.optimize._highspy._core``.  The normal import runs
``scipy.optimize``'s ``__init__`` first, which takes most of a second and
pulls in half of scipy; the extension itself needs none of it.
:func:`scipy_highs_core` therefore loads the extension file by path
(``importlib.util.spec_from_file_location``), registered under its usual
dotted name, so that ``scipy.optimize``, should anything import it later,
finds it in ``sys.modules`` and shares the same module object.  Should
scipy's private layout move, it falls back to the normal import.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from functools import cache

_NAME = "scipy.optimize._highspy._core"


def _load_by_path():
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    for root in scipy.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_highspy", "_core" + suffix)
            if not os.path.exists(path):
                continue
            spec = importlib.util.spec_from_file_location(_NAME, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_NAME] = module
            return module
    return None


@cache
def scipy_highs_core():
    """The ``_core`` module of scipy's bundled HiGHS."""
    module = sys.modules.get(_NAME)
    if module is None:
        try:
            module = _load_by_path()
        except ImportError:
            module = None
    if module is None:
        from scipy.optimize._highspy import _core as module  # type: ignore
    return module
