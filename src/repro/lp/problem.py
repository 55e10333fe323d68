"""Linear-program assembly and solving.

The derivation system emits (a) equalities between affine forms — polynomial
coefficient matching — and (b) sign constraints on certificate multipliers.
The objective minimizes the imprecision of the main pre-annotation evaluated
at user-supplied concrete valuations (section 3.4, "Solving linear
constraints").

:class:`LPProblem` is a thin façade: it owns the variable pool, performs the
constant-row feasibility checks at emission time, and keeps the ``note``
annotations used for infeasibility diagnostics.  Row storage and solving are
delegated to a backend (:mod:`repro.lp.backends`): the incremental
warm-started HiGHS backend unless the caller passes another instance (the
parity tests pass :class:`~repro.lp.backends.ScipyDenseBackend`).

Solves route through the structure-exploiting reduction layer
(:mod:`repro.lp.reduce`): a vectorized presolve over the backend's row
buffers plus a connected-component block decomposition, with lexicographic
cut rows appended to the live block models in reduced coordinates.  The
layer is an overlay over the backend's row storage — checkpoints and
rollbacks keep their semantics.  ``solve(reduce=False)`` is the direct
backend solve: the path the reducer itself falls back to, and the oracle
of the reduction tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lp.affine import AffBuilder, AffForm, LinVar, VarPool
from repro.lp.backends import Checkpoint, IncrementalBackend, LPBackend
from repro.lp.backends.base import EQ, GE
from repro.lp.core import LPError, LPInfeasibleError, LPSolution
from repro.lp.reduce import ReducedSolver

__all__ = [
    "LPError",
    "LPInfeasibleError",
    "LPProblem",
    "LPSolution",
]

#: How many note labels the infeasibility diagnostics mention per row kind.
_DIAGNOSTIC_NOTES = 6


@dataclass
class LPProblem:
    pool: VarPool = field(default_factory=VarPool)
    backend: LPBackend = field(default_factory=IncrementalBackend)
    _nonneg: set[int] = field(default_factory=set)
    _eq_notes: dict[int, str] = field(default_factory=dict)
    _ge_notes: dict[int, str] = field(default_factory=dict)
    #: Contiguous λ-column spans recorded by certificate emission
    #: (:func:`repro.logic.handelman.emit_nonneg_certificate`); the reduction
    #: layer builds its nonnegativity mask from these without scanning the
    #: Python-level index set.
    _cert_spans: list[tuple[int, int]] = field(default_factory=list)
    #: Columns the reduction layer must keep in its solved core (objective
    #: and cut-row columns); see :meth:`protect_columns`.
    _protected: set[int] = field(default_factory=set)
    _reducer: "ReducedSolver | None" = field(default=None, repr=False)

    def __getstate__(self):
        """Artifact-cache hook: the reducer holds live solver models (and a
        back-reference to this problem); it is rebuilt lazily on the first
        reduced solve after deserialization."""
        state = self.__dict__.copy()
        state["_reducer"] = None
        return state

    # -- variables -------------------------------------------------------------

    def fresh(self, name: str) -> LinVar:
        return self.pool.fresh(name)

    def fresh_nonneg(self, name: str) -> LinVar:
        var = self.pool.fresh(name)
        self._nonneg.add(var.index)
        return var

    @property
    def nonneg_indices(self) -> set[int]:
        return self._nonneg

    def note_cert_span(self, start: int, count: int) -> None:
        """Record a contiguous run of certificate multiplier columns.

        An emission hint: ``count`` λ-variables were just allocated at
        indices ``start..start+count-1``.  Presolve uses the spans to build
        its column masks vectorized instead of scanning the nonneg set.
        """
        if count > 0:
            self._cert_spans.append((start, count))

    @property
    def cert_spans(self) -> list[tuple[int, int]]:
        return self._cert_spans

    def protect_columns(self, indices) -> None:
        """Declare columns that upcoming objectives or cut rows will touch.

        The reduction layer may only eliminate unprotected columns from its
        solved core.  The declaration is a performance hint, not a safety
        requirement: touching an undeclared eliminated column triggers an
        automatic presolve recompute with that column protected.
        """
        self._protected.update(indices)

    @property
    def protected_columns(self) -> set[int]:
        return self._protected

    # -- constraints -------------------------------------------------------------

    def add_eq(self, form: AffForm | AffBuilder, note: str = "") -> None:
        """Require ``form == 0``."""
        if form.is_constant():
            if abs(form.const) > 1e-9:
                raise LPInfeasibleError(
                    f"contradictory constant constraint {form.const} == 0"
                    + (f" ({note})" if note else "")
                )
            return
        row = self.backend.add_row(EQ, form.terms, form.const)
        if note:
            self._eq_notes[row] = note

    def add_ge(self, form: AffForm | AffBuilder, note: str = "") -> None:
        """Require ``form >= 0``."""
        if form.is_constant():
            if form.const < -1e-9:
                raise LPInfeasibleError(
                    f"contradictory constant constraint {form.const} >= 0"
                    + (f" ({note})" if note else "")
                )
            return
        row = self.backend.add_row(GE, form.terms, form.const)
        if note:
            self._ge_notes[row] = note

    def add_le(self, form: AffForm | AffBuilder, note: str = "") -> None:
        if isinstance(form, AffBuilder):
            # Negate a copy — the caller's builder must stay usable.
            form = AffBuilder(dict(form.terms), form.const).negate()
            self.add_ge(form, note)
        else:
            self.add_ge(-form, note)

    @property
    def num_variables(self) -> int:
        return len(self.pool)

    @property
    def num_constraints(self) -> int:
        return self.backend.num_rows(EQ) + self.backend.num_rows(GE)

    # -- checkpoints ----------------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Snapshot the row counts; see :meth:`rollback`."""
        return self.backend.checkpoint()

    def rollback(self, checkpoint: Checkpoint) -> None:
        """Drop every constraint added after ``checkpoint``.

        Used by the pipeline to undo lexicographic stage cuts so a cached
        constraint system can be re-solved under different objectives.
        Variables are never rolled back — cuts add only rows.
        """
        self.backend.rollback(checkpoint)
        if self._reducer is not None:
            self._reducer.on_rollback(checkpoint)
        for notes, keep in (
            (self._eq_notes, checkpoint.eq),
            (self._ge_notes, checkpoint.ge),
        ):
            for row in [r for r in notes if r >= keep]:
                del notes[row]

    # -- diagnostics ----------------------------------------------------------------

    def infeasibility_diagnostics(self) -> str:
        """Summarize the noted constraint groups for error messages.

        The LP has no cheap way to name the *offending* rows, but the note
        labels carry the derivation-side provenance (certificate labels,
        polynomial monomials), which is what one needs to locate the
        modelling problem.
        """
        lines = [
            f"system: {self.num_variables} variables, "
            f"{self.backend.num_rows(EQ)} equalities, "
            f"{self.backend.num_rows(GE)} inequalities"
        ]
        for kind, notes in (("eq", self._eq_notes), ("ge", self._ge_notes)):
            if not notes:
                continue
            groups: dict[str, int] = {}
            for note in notes.values():
                groups[note.split("[", 1)[0]] = groups.get(note.split("[", 1)[0], 0) + 1
            sample = sorted(groups.items(), key=lambda kv: -kv[1])[:_DIAGNOSTIC_NOTES]
            shown = ", ".join(f"{label} ({count})" for label, count in sample)
            more = len(groups) - len(sample)
            lines.append(
                f"noted {kind} groups: {shown}" + (f", +{more} more" if more else "")
            )
        return "\n".join(lines)

    # -- solving ----------------------------------------------------------------------

    def solve(
        self,
        objective: AffForm | None = None,
        minimize: bool = True,
        bound: float = 1e12,
        regularization: float = 1e-7,
        reduce: bool = True,
    ) -> LPSolution:
        """Solve the accumulated system, optimizing ``objective``.

        Free variables are boxed at ``±bound`` to rule out unbounded rays
        (an unbounded objective means the bound template is degenerate;
        boxing keeps the solution meaningful and finite).

        ``regularization`` adds a tiny cost on every nonnegative variable
        (the Handelman certificate multipliers): certificates are massively
        non-unique, and the resulting degenerate optimal faces are what
        occasionally drives HiGHS to give up; preferring small certificates
        breaks the ties at negligible cost to the optimum.

        ``reduce=False`` bypasses the reduction layer
        (:mod:`repro.lp.reduce`) and hands the raw system to the backend.
        Either path returns full-variable-space values.
        """
        from repro import faults

        faults.check("lp.solve")
        terms = None
        const = 0.0
        if objective is not None:
            terms = objective.terms
            const = objective.const
        if reduce:
            if self._reducer is None:
                self._reducer = ReducedSolver(self)
            return self._reducer.solve(
                terms, const, minimize, bound, regularization
            )
        if self._reducer is not None:
            # A direct solve supersedes whatever the reducer last produced;
            # per-block pinning against its stale state would be invalid.
            self._reducer.last_was_reduced = False
        return self.backend.solve(
            self, terms, const, minimize, bound, regularization
        )

    def pin_objective(
        self,
        objective: AffForm,
        optimum: float,
        tolerance: float,
        note: str = "",
    ) -> float:
        """Pin the just-solved ``objective`` at ``optimum`` for later stages.

        The lexicographic driver calls this between stages.  A cut row
        ``objective <= optimum + tolerance`` is recorded in the row storage
        (so rollbacks, diagnostics, and unreduced re-solves see it); when
        the previous solve went through the reduction layer, the live block
        models are instead constrained by *per-block* pins — each block's
        objective slice held at its own optimum, with the ``tolerance``
        budget split across the blocks so the pinned region is a subset of
        the cut row's — and the stored row is marked as already
        materialized.  Returns the margin actually applied.
        """
        self.add_le(objective - (optimum + tolerance), note=note)
        reducer = self._reducer
        if reducer is not None and reducer.last_was_reduced:
            applied = reducer.pin_last_objective(tolerance)
            if applied is not None:
                reducer.absorb_external_row(GE)
                return applied
        return tolerance

    def reduction_stats(self, include_times: bool = True) -> dict | None:
        """Presolve/decomposition stats of the last solve, if it actually
        went through the reduction layer (None after direct solves)."""
        if self._reducer is None or not self._reducer.last_was_reduced:
            return None
        return self._reducer.stats_dict(include_times=include_times)
