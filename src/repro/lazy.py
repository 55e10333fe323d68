"""Lazy package exports (PEP 562).

A package re-exports names defined in its submodules through a module-level
``__getattr__``, so importing the package imports none of them: a one-shot
``repro analyze`` pays only for the modules it runs.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """``__getattr__`` and ``__dir__`` for the package whose globals are
    ``namespace``; ``exports`` maps each lazy name to its defining module."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
