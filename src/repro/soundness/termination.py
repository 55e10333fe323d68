"""Termination-moment finiteness: ``E[T^k] < inf`` (Appendix G).

Theorem 4.4(i) requires the ``md``-th moment of the stopping time to be
finite.  Appendix G shows the expected-potential method specialised to
stopping times — unit cost per evaluation step, upper bounds only — is sound
*unconditionally* (Theorem G.2 needs no OST side conditions, by monotone
convergence), so the checker may reuse the analysis engine in unit-cost /
upper-only mode without circularity.

A feasible derivation at moment degree ``k`` yields a polynomial bound on
``E[T^k]``; finiteness follows.  Infeasibility of the template search is
*not* a proof of divergence — the report says so.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.ast import Program
from repro.lp.problem import LPError


@dataclass
class TerminationReport:
    ok: bool
    moment_degree: int
    template_degree: int | None
    bound_str: str | None
    detail: str


def check_termination_moment(
    program: Program,
    moment_degree: int,
    template_degrees: tuple[int, ...] = (1, 2),
) -> TerminationReport:
    """Try to certify ``E[T^moment_degree] < inf`` for ``program``."""
    from repro.analysis.pipeline import AnalysisOptions, analyze
    from repro.analysis.transformer import AnalysisError

    last_error = "no template degree attempted"
    for degree in template_degrees:
        options = AnalysisOptions(
            moment_degree=moment_degree,
            template_degree=degree,
            unit_cost=True,
            upper_only=True,
            check_soundness=False,
        )
        try:
            result = analyze(program, options)
        except (LPError, AnalysisError, ValueError) as exc:
            last_error = f"degree {degree}: {exc}"
            continue
        return TerminationReport(
            ok=True,
            moment_degree=moment_degree,
            template_degree=degree,
            bound_str=result.upper_str(moment_degree),
            detail=(
                f"E[T^{moment_degree}] <= {result.upper_str(moment_degree)} "
                f"(unit-cost derivation, template degree {degree})"
            ),
        )
    return TerminationReport(
        ok=False,
        moment_degree=moment_degree,
        template_degree=None,
        bound_str=None,
        detail=(
            f"no unit-cost potential found for E[T^{moment_degree}] "
            f"(tried template degrees {template_degrees}): {last_error}. "
            "This does not prove divergence; try higher degrees or invariants."
        ),
    )
