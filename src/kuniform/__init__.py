"""Exact construction and verification of k-uniform multipartite qudit states.

A state of n qudits with d levels is k-uniform when every reduction to k
qudits is maximally mixed.  This package builds such states two ways -- from
zero-diagonal symmetric matrices over Z_d (quadratic phases) and from
classical linear codes with good distance and dual distance -- and verifies
any claimed k against an independent brute-force criterion in exact
cyclotomic arithmetic.  It also searches for witness matrices at small n and
evaluates the counting and asymptotic lower bounds on how large k can be.
"""

from .cyclotomic import CycInt, cyclotomic_polynomial, from_int, root_power, zero_test
from .modular import (
    count_linear_solutions,
    det_mod_d,
    invertible_mod_d,
    null_space_mod_p,
    rank_mod_p,
)
from .fields import GF, TraceOrthBasis, field_trace, find_trace_orthogonal_basis
from .states import PureState, TooLargeError, UniformityReport, marginal_sum, max_uniformity, verify_uniform
from .matrices import (
    Provenance,
    SymWitness,
    cauchy_witness,
    check_certificate,
    check_certificate_general,
    check_certificate_prime,
    quadratic_phase,
    state_from_matrix,
)
from .codes import (
    HypothesisError,
    LinearCode,
    dual_code,
    expand_code,
    is_self_dual,
    min_distance,
    puncture_last,
    reed_solomon,
    shorten_last,
    state_from_code,
)
from .bounds import (
    BoundReport,
    bound_report,
    cor3_predicate,
    entropy,
    lambda_constructive,
    lambda_existence,
    lambda_selfdual,
    np_lower_bound,
    thm3_prime_threshold,
)
from .search import SearchBudget, TableCell, search_witness, table_scan

__all__ = [
    "CycInt",
    "cyclotomic_polynomial",
    "from_int",
    "root_power",
    "zero_test",
    "count_linear_solutions",
    "det_mod_d",
    "invertible_mod_d",
    "null_space_mod_p",
    "rank_mod_p",
    "GF",
    "TraceOrthBasis",
    "field_trace",
    "find_trace_orthogonal_basis",
    "PureState",
    "TooLargeError",
    "UniformityReport",
    "marginal_sum",
    "max_uniformity",
    "verify_uniform",
    "Provenance",
    "SymWitness",
    "cauchy_witness",
    "check_certificate",
    "check_certificate_general",
    "check_certificate_prime",
    "quadratic_phase",
    "state_from_matrix",
    "HypothesisError",
    "LinearCode",
    "dual_code",
    "expand_code",
    "is_self_dual",
    "min_distance",
    "puncture_last",
    "reed_solomon",
    "shorten_last",
    "state_from_code",
    "BoundReport",
    "bound_report",
    "cor3_predicate",
    "entropy",
    "lambda_constructive",
    "lambda_existence",
    "lambda_selfdual",
    "np_lower_bound",
    "thm3_prime_threshold",
    "SearchBudget",
    "TableCell",
    "search_witness",
    "table_scan",
]
