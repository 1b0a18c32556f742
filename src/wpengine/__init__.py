"""Exact weakest-preexpectation engine for probabilistic guarded commands.

The package computes syntactic preexpectations of loop-free probabilistic
programs, compiles loops into closed-form syntactic expectations through
Goedel-number encodings of state sequences, rewrites expectations into
prenex, summation, and cut normal forms, and cross-checks every symbolic
artifact against exact semantic oracles (forward distribution semantics,
fixed-point iteration, and truncated path sums) using rational arithmetic
throughout.
"""

from .errors import (
    ContainsLoop,
    EngineError,
    FreeVarsOutsideVarSet,
    FuelExceeded,
    IllegalProduct,
    NotPrenex,
    ParseError,
    ProbabilityOutOfRange,
    SummandBlowup,
)
from .parser import parse_exp, parse_fo, parse_program, parse_state
from .semantics import ORACLE, RESTRICTED, QDomain, State, calkin_wilf, eval_exp, state
from .syntax import print_exp, print_fo, print_program
from .xreal import XReal, rat

__all__ = [
    "ContainsLoop",
    "EngineError",
    "FreeVarsOutsideVarSet",
    "FuelExceeded",
    "IllegalProduct",
    "NotPrenex",
    "ORACLE",
    "ParseError",
    "ProbabilityOutOfRange",
    "QDomain",
    "RESTRICTED",
    "State",
    "SummandBlowup",
    "XReal",
    "calkin_wilf",
    "eval_exp",
    "parse_exp",
    "parse_fo",
    "parse_program",
    "parse_state",
    "print_exp",
    "print_fo",
    "print_program",
    "rat",
    "state",
]
