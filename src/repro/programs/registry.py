"""Benchmark program registry.

Every evaluation program in the paper (and the suites it compares against)
is registered here as an Appl surface-syntax source plus the metadata the
benchmark harness needs: which moments to request, the objective/evaluation
valuation, the initial valuation for simulation, and the paper-reported
reference values for EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.lang.ast import Program
from repro.lang.parser import parse_program


@dataclass(frozen=True)
class BenchProgram:
    """One benchmark: source text plus harness metadata."""

    name: str
    source: str
    description: str = ""
    #: Valuation at which bounds are evaluated/optimized (program variables
    #: missing here default to 1.0 inside the engine).
    valuation: dict[str, float] = field(default_factory=dict, hash=False, compare=False)
    #: Initial valuation for Monte-Carlo simulation (parameters of main).
    sim_init: dict[str, float] = field(default_factory=dict, hash=False, compare=False)
    #: Additional valuations for the LP objective (pins template coefficients
    #: when a single evaluation point leaves the optimum degenerate).
    extra_valuations: tuple = ()
    moment_degree: int = 2
    template_degree: int = 1
    degree_cap: "int | None" = None
    #: Paper-reported values, free-form, for EXPERIMENTS.md tables.
    paper: dict[str, object] = field(default_factory=dict, hash=False, compare=False)
    #: Costs are nonnegative (raw-moment baseline applicable).
    monotone: bool = True

    def parse(self) -> Program:
        return parse_program(self.source)

    def options(self):
        """The registered analysis options: the moment degree, the template
        degree, the cap, and ``(valuation,) + extra_valuations`` as the
        objective valuations.  Callers that override a field use
        :func:`dataclasses.replace`."""
        from repro.analysis.pipeline import AnalysisOptions

        return AnalysisOptions(
            moment_degree=self.moment_degree,
            template_degree=self.template_degree,
            degree_cap=self.degree_cap,
            objective_valuations=(dict(self.valuation),)
            + tuple(dict(v) for v in self.extra_valuations),
        )


_REGISTRY: dict[str, BenchProgram] = {}


def register(bench: BenchProgram) -> BenchProgram:
    if bench.name in _REGISTRY:
        raise ValueError(f"duplicate benchmark {bench.name!r}")
    _REGISTRY[bench.name] = bench
    return bench


def get(name: str) -> BenchProgram:
    _load_all()
    return _REGISTRY[name]


@lru_cache(maxsize=None)
def parsed(name: str) -> Program:
    return get(name).parse()


def all_benchmarks() -> dict[str, BenchProgram]:
    _load_all()
    return dict(_REGISTRY)


def by_prefix(prefix: str) -> list[BenchProgram]:
    _load_all()
    return [b for name, b in sorted(_REGISTRY.items()) if name.startswith(prefix)]


_LOADED = False


def _load_all() -> None:
    """Import all program modules so their ``register`` calls run."""
    global _LOADED
    if _LOADED:
        return
    from repro.programs import absynth, kura, rdwalk, timing, wang  # noqa: F401

    _LOADED = True
