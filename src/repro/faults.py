"""Seeded fault injection: deterministic failure at named points.

Every retry/backoff/respawn path added since the durable queue landed —
cache corrupt-entry discard, ``BEGIN IMMEDIATE`` transaction retries,
lease re-delivery — exists to survive failures that
are rare in a healthy environment.  This module makes those failures
*orderable*: arm a named fault point with a mode, a probability, and a
seed, and the exact same faults fire on every run.

Grammar (the ``REPRO_FAULTS`` environment variable)::

    REPRO_FAULTS=point:mode:prob:seed[,point:mode:prob:seed...]

* ``point`` — one of :data:`POINTS` (``cache.read``, ``cache.write``,
  ``store.tx``, ``lp.solve``, ``pipeline.stage``).
* ``mode`` — ``raise`` (throw :class:`FaultInjected`), ``delay`` (sleep;
  ``delay@SECONDS`` picks the duration, default 0.05 — a long delay at
  ``pipeline.stage`` is the canonical hang injection), or ``corrupt``
  (flip bytes in the data passing through; only meaningful at points that
  call :func:`corrupt`, i.e. the cache I/O points).
* ``prob`` — per-visit firing probability in ``[0, 1]``.
* ``seed`` — the per-spec ``random.Random`` seed.  Same seed, same visit
  sequence ⇒ the same visits fire.  Deterministic chaos, reproducible
  drills.

When unarmed (no ``REPRO_FAULTS``, the overwhelmingly common case) every
hook compiles down to one module-level boolean test — no parsing, no RNG,
no lock.

Fired faults are counted per ``point:mode`` (:func:`counters`), which
``/metrics`` surfaces as ``repro_faults_injected_total`` so a chaos drill
can assert its faults actually happened.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "FaultInjected",
    "POINTS",
    "armed",
    "check",
    "configure",
    "corrupt",
    "counters",
]

POINTS = (
    "cache.read",
    "cache.write",
    "store.tx",
    "lp.solve",
    "pipeline.stage",
)

MODES = ("raise", "delay", "corrupt")

_DEFAULT_DELAY = 0.05


class FaultInjected(RuntimeError):
    """A ``raise``-mode fault point fired."""


@dataclass
class _FaultSpec:
    point: str
    mode: str
    prob: float
    seed: int
    delay_seconds: float = _DEFAULT_DELAY
    rng: random.Random = field(init=False)
    lock: threading.Lock = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)
        self.lock = threading.Lock()

    def fires(self) -> bool:
        if self.prob >= 1.0:
            return True
        with self.lock:
            return self.rng.random() < self.prob


def _parse_spec(text: str) -> _FaultSpec:
    parts = text.strip().split(":")
    if len(parts) != 4:
        raise ValueError(
            f"bad fault spec {text!r}: expected point:mode:prob:seed"
        )
    point, mode, prob, seed = parts
    if point not in POINTS:
        raise ValueError(
            f"unknown fault point {point!r}; expected one of {', '.join(POINTS)}"
        )
    delay = _DEFAULT_DELAY
    if mode.startswith("delay@"):
        delay = float(mode.split("@", 1)[1])
        mode = "delay"
    if mode not in MODES:
        raise ValueError(
            f"unknown fault mode {mode!r}; expected raise, delay[@SECONDS],"
            " or corrupt"
        )
    probability = float(prob)
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"fault probability {prob!r} not in [0, 1]")
    return _FaultSpec(
        point=point,
        mode=mode,
        prob=probability,
        seed=int(seed),
        delay_seconds=delay,
    )


_armed = False
_specs: dict[str, list[_FaultSpec]] = {}
_counters: dict[str, int] = {}


def configure(text: "str | None" = None) -> None:
    """(Re)arm from ``text`` (default: the ``REPRO_FAULTS`` env var).

    An empty/absent spec disarms everything and resets the counters —
    tests use ``configure("")`` to return to the no-op state.
    """
    global _armed, _specs, _counters
    if text is None:
        text = os.environ.get("REPRO_FAULTS", "")
    specs: dict[str, list[_FaultSpec]] = {}
    for piece in text.split(","):
        if not piece.strip():
            continue
        spec = _parse_spec(piece)
        specs.setdefault(spec.point, []).append(spec)
    _specs = specs
    _counters = {}
    _armed = bool(specs)


def _reinit_locks_in_child() -> None:
    """A forked child gets every armed spec's lock released: a thread of
    the parent may have held one at the fork."""
    for specs in _specs.values():
        for spec in specs:
            spec.lock._at_fork_reinit()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_locks_in_child)


def armed() -> bool:
    return _armed


def counters() -> dict[str, int]:
    """Fired-fault counts per ``point:mode`` since the last configure."""
    return dict(_counters)


def _record(spec: _FaultSpec) -> None:
    key = f"{spec.point}:{spec.mode}"
    _counters[key] = _counters.get(key, 0) + 1


def check(point: str) -> None:
    """Visit ``point``: fire any armed ``raise``/``delay`` specs.

    The no-op fast path is a single boolean test.
    """
    if not _armed:
        return
    for spec in _specs.get(point, ()):
        if spec.mode == "corrupt" or not spec.fires():
            continue
        _record(spec)
        if spec.mode == "delay":
            time.sleep(spec.delay_seconds)
        else:
            raise FaultInjected(
                f"injected fault at {point} "
                f"(prob {spec.prob:g}, seed {spec.seed})"
            )


def corrupt(point: str, data: bytes) -> bytes:
    """Visit ``point`` with ``data`` in flight: armed ``corrupt`` specs
    that fire flip a deterministic byte (and always leave the length
    intact, so corruption is a *content* failure, not a truncation)."""
    if not _armed:
        return data
    for spec in _specs.get(point, ()):
        if spec.mode != "corrupt" or not spec.fires():
            continue
        _record(spec)
        if data:
            with spec.lock:
                index = spec.rng.randrange(len(data))
            mutated = bytearray(data)
            mutated[index] ^= 0xFF
            data = bytes(mutated)
    return data


configure()
