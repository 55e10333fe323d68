"""Function specifications for moment-polymorphic recursion.

Section 3.3: for every function ``f`` and restriction level ``h = 0..m`` the
context Δ holds an ``h``-restricted pre/post pair ``(Q_h(f), Q'_h(f))``
(components below ``h`` pinned to ``[0,0]``).  A call at level ``h`` uses the
⊕-sum of the specs at levels ``h..m`` — the fully unrolled form of rule
(Q-Call-Poly): the frame of a level-``h`` call is the level-``h+1`` summary,
whose own frame is the level-``h+2`` summary, and so on until the
monomorphic level ``m`` (rule Q-Call-Mono, empty frame).  Summing specs of
the *same* function is valid by the relaxation lemma (Lemma F.2), and rule
(Q-Weaken) closes the gap between the summed spec post and the call-site
post-annotation.

This realizes Example 2.6's "elimination sequence" with one spec template
per level and interval slack.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.annotations import MomentAnnotation, fresh_annotation
from repro.lp.problem import LPProblem


@dataclass
class FunSpec:
    """Per-level pre/post annotation templates for one function."""

    name: str
    pres: list[MomentAnnotation]
    posts: list[MomentAnnotation]


class SpecTable:
    """All function specs of a program, plus the level summaries."""

    def __init__(
        self,
        lp: LPProblem,
        functions: list[str],
        m: int,
        template_degree: int,
        variables: tuple[str, ...],
        upper_only: bool = False,
        degree_cap: int | None = None,
    ) -> None:
        self.m = m
        self.specs: dict[str, FunSpec] = {}
        self._summaries: dict[tuple[str, int], tuple[MomentAnnotation, MomentAnnotation]] = {}
        for name in functions:
            pres = []
            posts = []
            for h in range(m + 1):
                pres.append(
                    fresh_annotation(
                        lp, m, template_degree, variables,
                        label=f"{name}.pre{h}", restrict=h, upper_only=upper_only,
                        degree_cap=degree_cap,
                    )
                )
                posts.append(
                    fresh_annotation(
                        lp, m, template_degree, variables,
                        label=f"{name}.post{h}", restrict=h, upper_only=upper_only,
                        degree_cap=degree_cap,
                    )
                )
            self.specs[name] = FunSpec(name, pres, posts)

    def functions(self) -> list[str]:
        return list(self.specs)

    def spec(self, name: str) -> FunSpec:
        return self.specs[name]

    def summary(self, name: str, level: int) -> tuple[MomentAnnotation, MomentAnnotation]:
        """⊕-sum of the specs of ``name`` at levels ``level..m``.

        Cached per ``(name, level)``: the summary is pure template algebra
        over the (immutable) spec annotations, and call-heavy programs ask
        for the same summary at every call site.
        """
        key = (name, level)
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        spec = self.specs[name]
        pre = MomentAnnotation.oplus_all(spec.pres[level:])
        post = MomentAnnotation.oplus_all(spec.posts[level:])
        self._summaries[key] = (pre, post)
        return pre, post
