"""The end-to-end solver: base capacity, parity join, split-off, cross-checks."""

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionViolated, SolverInternalError
from .join import JoinResult, min_cost_ij_join, parity_sets
from .model import EdgeCapacity, Realization
from .splitoff import realize_capacity
from .verify import verify_feasible_capacity, verify_realization


@dataclass(frozen=True)
class Solution:
    """Everything `solve` produced, cross-checked before it is returned.

    `cost` is the exact cost of `realization`; `formula_cost` is the
    closed-form optimum (base capacity cost plus join cost) and the two are
    equal by construction. `trace` lists the splits as (node, u, w, amount).
    """

    realization: Realization
    capacity: EdgeCapacity
    join: JoinResult
    cost: Fraction
    formula_cost: Fraction
    trace: tuple


def _base_and_join(instance):
    """Base capacity and minimum parity join.

    Raises PreconditionViolated with the tree edges whose cut requirement is
    0 or 1, and the offending values: a requirement of 1 across some tree cut
    breaks integral splitting and a requirement of 0 disconnects the problem
    across that edge.
    """
    base = instance.base_capacity()
    bad = [(e, base[e]) for e in instance.tree.edges if base[e] <= 1]
    if bad:
        raise PreconditionViolated(bad)
    join = min_cost_ij_join(parity_sets(instance, base))
    if join is None:
        # every tree leaf is a terminal and terminals are free, so a
        # satisfying selection always exists on a pruned instance
        raise SolverInternalError("parity join infeasible on a pruned tree")
    return base, join


def optimal_cost_formula(instance):
    """Closed-form minimum cost: lower bound plus the cheapest parity fix."""
    base, join = _base_and_join(instance)
    return base.cost() + join.cost


def solve(instance):
    """Compute a minimum-cost integer realization with its certificates.

    Pipeline: per-edge cut requirements, +1 on a minimum parity join to make
    every inner load even, then split off the inner nodes. The resulting
    capacity is re-verified for feasibility, and the realization cost must
    equal the closed-form optimum exactly or SolverInternalError aborts the
    run.
    """
    base, join = _base_and_join(instance)
    capacity = base.bump(join.edges)
    problems = verify_feasible_capacity(instance, capacity)
    if problems:
        raise SolverInternalError(f"chosen capacity is not feasible: {problems}")
    realization, trace = realize_capacity(instance, capacity)
    cost = instance.realization_cost(realization)
    formula_cost = base.cost() + join.cost
    if cost != formula_cost:
        raise SolverInternalError(
            f"realization cost {cost} does not match the formula value {formula_cost}"
        )
    return Solution(
        realization=realization,
        capacity=capacity,
        join=join,
        cost=cost,
        formula_cost=formula_cost,
        trace=trace,
    )


def solve_and_check(instance):
    """`solve` plus an independent max-flow feasibility audit of the result."""
    solution = solve(instance)
    violations = verify_realization(instance, solution.realization)
    if violations:
        raise SolverInternalError(f"solution fails verification: {violations}")
    return solution
