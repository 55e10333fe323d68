"""repro — Central moment analysis for cost accumulators in probabilistic programs.

A from-scratch Python reproduction of Wang, Hoffmann, Reps (PLDI 2021):
automatic derivation of symbolic interval bounds on raw and central moments
of cost accumulators in probabilistic programs, with tail-bound analysis on
top.

Quickstart::

    from repro import parse_program, analyze, AnalysisOptions

    program = parse_program('''
        func rdwalk() pre(x < d + 2) begin
          if x < d then
            t ~ uniform(-1, 2);
            x := x + t;
            call rdwalk;
            tick(1)
          fi
        end

        func main() pre(d > 0) begin
          x := 0;
          call rdwalk
        end
    ''')
    result = analyze(program, AnalysisOptions(moment_degree=2))
    print(result.upper_str(1))   # ~ 2*d + 4
    print(result.variance({"d": 10, "x": 0, "t": 0}))
"""

from repro.analysis.pipeline import (
    AnalysisOptions,
    AnalysisPipeline,
    analyze,
    analyze_many,
    analyze_upper_raw,
)
from repro.analysis.results import MomentBoundResult
from repro.analysis.transformer import AnalysisError
from repro.interp.mc import (
    CostStatistics,
    estimate_cost_statistics,
    simulate_costs,
    statistics_from_costs,
)
from repro.interp.vectorized import BatchRunResult, VectorizedMachine
from repro.lang.parser import parse_program
from repro.lp.problem import LPError, LPInfeasibleError
from repro.rings.interval import Interval
from repro.rings.moment import MomentVector, raw_to_central, variance_interval
from repro.programs.fuzz import FuzzCase, FuzzConfig, generate_case, generate_corpus
from repro.service import ArtifactCache, BatchReport, run_batch
from repro.soundness.checker import SoundnessReport, check_soundness
from repro.soundness.differential import (
    DifferentialConfig,
    DifferentialReport,
    check_case,
    run_differential,
)
from repro.tail.bounds import (
    best_upper_tail,
    cantelli_upper_tail,
    chebyshev_tail,
    markov_tail,
    tail_curve,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "AnalysisOptions",
    "AnalysisPipeline",
    "ArtifactCache",
    "BatchReport",
    "BatchRunResult",
    "CostStatistics",
    "DifferentialConfig",
    "DifferentialReport",
    "FuzzCase",
    "FuzzConfig",
    "Interval",
    "LPError",
    "LPInfeasibleError",
    "MomentBoundResult",
    "MomentVector",
    "SoundnessReport",
    "VectorizedMachine",
    "analyze",
    "analyze_many",
    "analyze_upper_raw",
    "best_upper_tail",
    "cantelli_upper_tail",
    "chebyshev_tail",
    "check_case",
    "check_soundness",
    "estimate_cost_statistics",
    "generate_case",
    "generate_corpus",
    "markov_tail",
    "parse_program",
    "raw_to_central",
    "run_batch",
    "run_differential",
    "simulate_costs",
    "statistics_from_costs",
    "tail_curve",
    "variance_interval",
]
