"""Monotonic deadline tokens bounding analysis wall-clock.

Nothing in the analyzer is allowed to block forever: a degenerate Handelman
template can put an LP stage objective on a near-unbounded ray that wedges
the solver indefinitely (the ``rdwalk_chain(3)``@m=4 pathology), and at
fuzzing scale such programs *will* occur.  This module is the one shared
clock every layer consults:

* :class:`Deadline` — a token anchored at ``time.monotonic()`` with a
  wall-clock budget.  ``remaining()`` is clamped at zero, ``check(stage)``
  raises :class:`AnalysisTimeout` once the budget is spent, and every check
  records a per-stage timing mark so the raised timeout says *where* the
  budget went.
* :class:`AnalysisTimeout` — the typed expiry error.  Deliberately **not**
  an :class:`~repro.lp.core.LPError` subclass: the template-restart ladder
  and the reduced solver's retry loops catch ``LPError`` to try again, and
  retrying with an exhausted budget is exactly what a deadline must
  prevent.
* :func:`deadline_scope` / :func:`current_deadline` — a context-variable
  scope.  The pipeline arms the token once in ``analyze`` and every layer
  below (backends, the reduce block loop, vectorized MC supersteps) reads
  it ambiently, so no solve signature carries a deadline parameter.

Deadlines are runtime-only: they never enter cache keys, and an analysis
run with a generous deadline produces byte-identical bounds to one with no
deadline at all (the token is only ever *read*, never folded into results).
"""

from __future__ import annotations

import contextlib
import contextvars
import time

__all__ = [
    "AnalysisTimeout",
    "Deadline",
    "current_deadline",
    "deadline_scope",
]


class AnalysisTimeout(Exception):
    """An analysis ran past its :class:`Deadline`.

    Carries the ``stage`` that tripped the check, the token's elapsed
    ``seconds``, and the per-stage ``timings`` recorded up to that point
    (an ordered ``{stage: seconds}`` mapping).  ``lex_completed`` is filled
    in by the lexicographic solver: the number of moment stages that were
    fully solved before the budget ran out, which seeds the graceful-
    degradation ladder's first fallback degree.
    """

    def __init__(
        self,
        stage: str,
        seconds: float,
        timings: "dict[str, float] | None" = None,
        lex_completed: int = 0,
    ) -> None:
        super().__init__(
            f"analysis deadline exceeded after {seconds:.3f}s (at stage "
            f"{stage!r})"
        )
        self.stage = stage
        self.seconds = seconds
        self.timings = dict(timings or {})
        self.lex_completed = lex_completed


class Deadline:
    """A monotonic wall-clock budget shared by every pipeline layer."""

    def __init__(self, seconds: float) -> None:
        if seconds <= 0:
            raise ValueError("deadline must be a positive number of seconds")
        self.seconds = float(seconds)
        self._start = time.monotonic()
        self._last_mark = self._start
        #: Ordered per-stage timings: seconds spent between consecutive
        #: ``check``/``mark`` calls, attributed to the stage *reached*.
        self.timings: dict[str, float] = {}

    def elapsed(self) -> float:
        return time.monotonic() - self._start

    def remaining(self) -> float:
        """Budget left, clamped at zero (never negative)."""
        return max(0.0, self.seconds - self.elapsed())

    def expired(self) -> bool:
        return self.elapsed() >= self.seconds

    def mark(self, stage: str) -> None:
        """Attribute the time since the previous mark to ``stage``."""
        now = time.monotonic()
        self.timings[stage] = self.timings.get(stage, 0.0) + (now - self._last_mark)
        self._last_mark = now

    def check(self, stage: str) -> None:
        """Record a stage boundary; raise :class:`AnalysisTimeout` if spent."""
        self.mark(stage)
        if self.expired():
            raise AnalysisTimeout(stage, self.elapsed(), self.timings)


_current: contextvars.ContextVar["Deadline | None"] = contextvars.ContextVar(
    "repro_deadline", default=None
)


def current_deadline() -> "Deadline | None":
    """The ambient deadline token, or ``None`` when no budget is armed."""
    return _current.get()


@contextlib.contextmanager
def deadline_scope(deadline: "Deadline | None"):
    """Make ``deadline`` the ambient token for the dynamic extent.

    ``None`` explicitly clears any outer scope (used by the degradation
    ladder to give each fallback rung a fresh budget).
    """
    token = _current.set(deadline)
    try:
        yield deadline
    finally:
        _current.reset(token)
