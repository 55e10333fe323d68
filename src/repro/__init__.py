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

from repro.lazy import lazy_exports

#: Public name -> the module that defines it, imported on first access:
#: ``import repro`` loads none of them, so a one-shot ``repro analyze``
#: never pays for the service, soundness, fuzz or vectorized-MC modules.
_EXPORTS = {
    "AnalysisOptions": "repro.analysis.pipeline",
    "AnalysisPipeline": "repro.analysis.pipeline",
    "analyze": "repro.analysis.pipeline",
    "analyze_upper_raw": "repro.analysis.pipeline",
    "MomentBoundResult": "repro.analysis.results",
    "AnalysisError": "repro.analysis.transformer",
    "CostStatistics": "repro.interp.mc",
    "estimate_cost_statistics": "repro.interp.mc",
    "simulate_costs": "repro.interp.mc",
    "statistics_from_costs": "repro.interp.mc",
    "BatchRunResult": "repro.interp.vectorized",
    "VectorizedMachine": "repro.interp.vectorized",
    "parse_program": "repro.lang.parser",
    "LPError": "repro.lp.core",
    "LPInfeasibleError": "repro.lp.core",
    "Interval": "repro.rings.interval",
    "MomentVector": "repro.rings.moment",
    "raw_to_central": "repro.rings.moment",
    "variance_interval": "repro.rings.moment",
    "FuzzCase": "repro.programs.fuzz",
    "FuzzConfig": "repro.programs.fuzz",
    "generate_case": "repro.programs.fuzz",
    "generate_corpus": "repro.programs.fuzz",
    "ArtifactCache": "repro.service",
    "BatchReport": "repro.service",
    "run_batch": "repro.service",
    "SoundnessReport": "repro.soundness.checker",
    "check_soundness": "repro.soundness.checker",
    "DifferentialConfig": "repro.soundness.differential",
    "DifferentialReport": "repro.soundness.differential",
    "check_case": "repro.soundness.differential",
    "run_differential": "repro.soundness.differential",
    "best_upper_tail": "repro.tail.bounds",
    "cantelli_upper_tail": "repro.tail.bounds",
    "chebyshev_tail": "repro.tail.bounds",
    "markov_tail": "repro.tail.bounds",
    "tail_curve": "repro.tail.bounds",
}

__version__ = "1.0.0"

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
