"""Equilibrium pricing on finite event trees.

Builds and verifies market equilibria for agents with quadratic or
linear mean-variance preferences: conditional-expectation machinery on
filtration trees, mean-variance hedging, orthogonal martingale
decompositions, and the fixed-point construction for the linear
mean-variance risk-aversion level.
"""

from .tree import FiltrationTree
from .scenario import (
    DEFAULT_TOL,
    AgentSpec,
    LinearMV,
    Quadratic,
    Scenario,
    aggregate_endowment,
    total_endowment,
    validate_scenario,
)
from .stoch import (
    cond_expect,
    delta_bracket,
    is_martingale,
    martingale_from_terminal,
    restarted_exponential,
    stoch_integral,
)
from .mvh import (
    GainsOperator,
    GkwDecomposition,
    MvhSolution,
    OpportunityProcess,
    c_of_H_formula,
    gkw_decompose,
    opportunity_process,
    pure_investment,
    solve_exmvh,
    solve_mvh,
    uniqueness_of_gains,
    uniqueness_of_values,
    zero_solves_mvh_iff,
)
from .quadratic import (
    EquilibriumReport,
    NonexistenceError,
    aggregate,
    check_necessary_conditions,
    construct_degenerate,
    construct_regular,
    individual_optimal,
    representative_check,
    solve_quadratic,
    verify_equilibrium,
)
from .linear_mv import (
    FrontierData,
    MvEquilibriumReport,
    agent_frontier,
    gamma_bar_fixed_point,
    mv_efficiency_check,
    optimal_mv_strategy,
    solve_linear_mv,
    verify_fixed_point,
)
from .generate import generate_random_scenario, random_tree
from .io import (
    ParseError,
    emit_scenario,
    load_scenario,
    parse_scenario,
    report_to_csv,
    report_to_json,
)

__all__ = [
    "FiltrationTree",
    "DEFAULT_TOL",
    "AgentSpec",
    "LinearMV",
    "Quadratic",
    "Scenario",
    "aggregate_endowment",
    "total_endowment",
    "validate_scenario",
    "cond_expect",
    "delta_bracket",
    "is_martingale",
    "martingale_from_terminal",
    "restarted_exponential",
    "stoch_integral",
    "GainsOperator",
    "GkwDecomposition",
    "MvhSolution",
    "OpportunityProcess",
    "c_of_H_formula",
    "gkw_decompose",
    "opportunity_process",
    "pure_investment",
    "solve_exmvh",
    "solve_mvh",
    "uniqueness_of_gains",
    "uniqueness_of_values",
    "zero_solves_mvh_iff",
    "EquilibriumReport",
    "NonexistenceError",
    "aggregate",
    "check_necessary_conditions",
    "construct_degenerate",
    "construct_regular",
    "individual_optimal",
    "representative_check",
    "solve_quadratic",
    "verify_equilibrium",
    "FrontierData",
    "MvEquilibriumReport",
    "agent_frontier",
    "gamma_bar_fixed_point",
    "mv_efficiency_check",
    "optimal_mv_strategy",
    "solve_linear_mv",
    "verify_fixed_point",
    "generate_random_scenario",
    "random_tree",
    "ParseError",
    "emit_scenario",
    "load_scenario",
    "parse_scenario",
    "report_to_csv",
    "report_to_json",
]

__version__ = "0.1.0"
