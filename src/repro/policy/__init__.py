"""Tail-assertion policy language over moment bounds.

A small declarative spec language for the quantities the analyzer can
certify — moment intervals and concentration tail bounds:

    @name rdwalk sanity
    @programs rdwalk
    E[cost] in [19, 25]
    variance(cost) <= 249
    P(cost >= 100) <= 0.05

Specs are parsed (:mod:`repro.policy.parser`) into a typed condition AST
(:mod:`repro.policy.ast`), evaluated against analyzer results
(:mod:`repro.policy.evaluate`) with a three-way verdict model —
``pass`` / ``fail`` / ``inconclusive`` — and rendered as human or
byte-stable JSON reports (:mod:`repro.policy.report`).  Suite mode
(:mod:`repro.policy.suite`) checks a directory of specs against registry
program sets in one batch.
"""

from repro.policy.ast import (
    Assertion,
    AttackSuccess,
    CentralMoment,
    Comparison,
    Membership,
    RawMoment,
    Spec,
    Stddev,
    TailProbability,
)
from repro.policy.evaluate import AssertionOutcome, ProgramCheck, evaluate_spec
from repro.policy.parser import ParseError, parse_assertion, parse_spec
from repro.policy.report import check_to_dict, render_check, render_suite, suite_to_dict
from repro.policy.suite import SpecRun, SuiteResult, load_suite, run_suite

__all__ = [
    "Assertion",
    "AssertionOutcome",
    "AttackSuccess",
    "CentralMoment",
    "Comparison",
    "Membership",
    "ParseError",
    "ProgramCheck",
    "RawMoment",
    "Spec",
    "SpecRun",
    "Stddev",
    "SuiteResult",
    "TailProbability",
    "check_to_dict",
    "evaluate_spec",
    "load_suite",
    "parse_assertion",
    "parse_spec",
    "render_check",
    "render_suite",
    "run_suite",
    "suite_to_dict",
]
