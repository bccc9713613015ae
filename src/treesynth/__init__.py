"""Exact minimum-cost integer network synthesis under tree-metric edge costs.

Given terminals embedded in a length-weighted tree and pairwise connectivity
requirements, `solve` returns a cheapest integer capacity assignment on
terminal pairs whose min-cuts meet every requirement, together with the
certificates used along the way. Requires every tree cut to carry a
requirement of at least 2.

This namespace holds the documented API; everything else is imported from its
submodule.
"""

from .errors import (
    InvalidInstance,
    ParseError,
    PreconditionViolated,
    SolverInternalError,
    TooLarge,
    TreeSynthError,
    UnknownNode,
)
from .model import Instance, Realization, build_instance
from .join import min_cost_ij_join
from .solver import Solution, optimal_cost_formula, solve, solve_and_check
from .verify import brute_force_insp, fractional_lower_bound, verify_realization
from .cli import generate_document, parse_instance
