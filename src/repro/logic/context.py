"""Logical contexts: the "polyhedra-lite" abstract domain.

A :class:`Context` is a finite conjunction of linear inequalities over
program variables (or bottom, for unreachable code).  It supports exactly
the operations the derivation system and abstract interpreter need:

* strongest-postcondition transfer for (invertible) linear assignments,
* sampling (havoc + support bounds),
* havoc for function calls,
* join at control-flow merges (mutual-entailment filtering),
* entailment and feasibility queries, decided exactly in rational
  arithmetic by :mod:`repro.logic.entail` (no float tolerance).

It stands in for the APRON polyhedra of the paper's implementation.  A join
keeps only the constraints each side entails, which is coarser than the
convex hull but sound.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from repro.lang.ast import Cond, Expr
from repro.logic import entail
from repro.logic.linear import LinExpr, LinIneq, cond_to_ineqs


#: Structural context key -> int id, process-wide (see ``cache_key``).  The
#: dict is capped: on overflow it is cleared, but ids keep counting up from
#: ``_KEY_COUNTER`` — an id, once issued, is never reused, so a stale id
#: cached on a live Context can never collide with a fresh one (it just
#: misses the downstream certificate-basis memo and recomputes).
_KEY_INTERN: dict[tuple, int] = {}
_KEY_COUNTER = 0
_KEY_INTERN_CAP = 16384
_KEY_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):  # a forked child gets the lock released
    os.register_at_fork(after_in_child=_KEY_LOCK._at_fork_reinit)


@dataclass(frozen=True)
class Context:
    ineqs: tuple[LinIneq, ...] = ()
    bottom: bool = False
    #: Variables known integer-valued; lets assume() strengthen strict
    #: comparisons (see repro.logic.linear.cmp_to_ineqs).
    integer_vars: frozenset = frozenset()

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def top(integer_vars: frozenset = frozenset()) -> "Context":
        return Context((), False, integer_vars)

    @staticmethod
    def bot() -> "Context":
        return Context((), True)

    @staticmethod
    def of_conds(
        conds: "list[Cond] | tuple[Cond, ...]",
        integer_vars: frozenset = frozenset(),
    ) -> "Context":
        ctx = Context.top(integer_vars)
        for cond in conds:
            ctx = ctx.assume(cond)
        return ctx

    # -- structure ---------------------------------------------------------------

    def _with(self, new_ineqs: list[LinIneq]) -> "Context":
        seen: list[LinIneq] = []
        for ineq in new_ineqs:
            if ineq.is_trivial() or ineq in seen:
                continue
            seen.append(ineq)
        return Context(tuple(seen), False, self.integer_vars)

    def add(self, *ineqs: LinIneq) -> "Context":
        if self.bottom:
            return self
        return self._with(list(self.ineqs) + list(ineqs))

    def assume(self, cond: Cond) -> "Context":
        if self.bottom:
            return self
        ineqs = cond_to_ineqs(cond, self.integer_vars)
        if ineqs is None:
            return Context.bot()
        return self.add(*ineqs)

    # -- transfer functions -------------------------------------------------------

    def assign(self, var: str, expr: Expr) -> "Context":
        """Strongest postcondition of ``var := expr`` (exact when linear)."""
        if self.bottom:
            return self
        rhs = LinExpr.from_polynomial(expr.to_polynomial())
        if rhs is None:
            return self.havoc([var])
        self_coeff = rhs.coeff(var)
        if self_coeff != 0.0:
            # Invertible update: old var = (var - rest) / coeff.
            rest = rhs - LinExpr.var(var, self_coeff)
            replacement = (LinExpr.var(var) - rest).scale(1.0 / self_coeff)
            return self._with([g.substitute(var, replacement) for g in self.ineqs])
        kept = [g for g in self.ineqs if var not in g.variables()]
        equality = LinExpr.var(var) - rhs
        kept.append(LinIneq(equality))
        kept.append(LinIneq(-equality))
        return self._with(kept)

    def sample(self, var: str, support: tuple[float, float]) -> "Context":
        """Transfer for ``var ~ D`` with ``support(D) ⊆ [lo, hi]``."""
        if self.bottom:
            return self
        kept = [g for g in self.ineqs if var not in g.variables()]
        lo, hi = support
        if lo != float("-inf"):
            kept.append(LinIneq(LinExpr.var(var) - lo))
        if hi != float("inf"):
            kept.append(LinIneq(LinExpr.constant(hi) - LinExpr.var(var)))
        return self._with(kept)

    def havoc(self, variables) -> "Context":
        if self.bottom:
            return self
        variables = set(variables)
        return self._with(
            [g for g in self.ineqs if not (g.variables() & variables)]
        )

    def meet(self, other: "Context") -> "Context":
        if self.bottom or other.bottom:
            return Context.bot()
        return self.add(*other.ineqs)

    def join(self, other: "Context") -> "Context":
        """Over-approximate union: keep mutually entailed facts."""
        if self.bottom:
            return other
        if other.bottom:
            return self
        kept = [g for g in self.ineqs if other.entails(g)]
        kept += [g for g in other.ineqs if self.entails(g) and g not in kept]
        return self._with(kept)

    # -- queries -----------------------------------------------------------------

    @property
    def cache_key(self) -> int:
        """A small interned integer identifying this context's constraints.

        Used by :mod:`repro.logic.handelman` to memoize certificate product
        sets per ``(context, degree)``: the derivation system re-visits the
        same handful of contexts hundreds of times (pre/post pairs of every
        containment, loop back/exit edges, all ``m+1`` moment components),
        and the products depend only on ``ineqs``.  Interning the structural
        key once per distinct context (and caching the id on the instance —
        contexts are frozen, so it cannot go stale) keeps the per-emission
        memo probe to one int hash instead of re-hashing the inequality
        tuples on every certificate.
        """
        try:
            return self._cache_key  # type: ignore[attr-defined]
        except AttributeError:
            global _KEY_COUNTER
            structural = (self.ineqs, self.bottom)
            with _KEY_LOCK:
                key = _KEY_INTERN.get(structural)
                if key is None:
                    if len(_KEY_INTERN) >= _KEY_INTERN_CAP:
                        # Unbounded workloads (serve, nightly fuzz budgets)
                        # must not grow this forever; ids stay monotone so
                        # already-issued keys remain unambiguous.
                        _KEY_INTERN.clear()
                    key = _KEY_COUNTER
                    _KEY_COUNTER += 1
                    _KEY_INTERN[structural] = key
            object.__setattr__(self, "_cache_key", key)
            return key

    def __getstate__(self):
        # ``_cache_key`` is a process-local intern id; a pickled copy landing
        # in another process (artifact cache, process executor) must re-intern.
        state = dict(self.__dict__)
        state.pop("_cache_key", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    def entails(self, ineq: LinIneq) -> bool:
        if self.bottom:
            return True
        return entail.entails(self.ineqs, ineq)

    def entails_all(self, ineqs) -> bool:
        return all(self.entails(g) for g in ineqs)

    def entails_cond(self, cond: Cond) -> bool:
        ineqs = cond_to_ineqs(cond, self.integer_vars)
        if ineqs is None:
            return self.bottom
        return self.entails_all(ineqs)

    def is_feasible(self) -> bool:
        if self.bottom:
            return False
        return entail.is_feasible(self.ineqs)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for g in self.ineqs:
            out |= g.variables()
        return out

    def __repr__(self) -> str:
        if self.bottom:
            return "⊥"
        if not self.ineqs:
            return "⊤"
        return " ∧ ".join(repr(g) for g in self.ineqs)
