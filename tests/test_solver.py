"""End-to-end solver behavior and its closed-form cost."""

import hashlib
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings

from treesynth import (
    PreconditionViolated,
    Realization,
    brute_force_insp,
    build_instance,
    fractional_lower_bound,
    maxflow,
    optimal_cost_formula,
    solve,
    solve_and_check,
    splitoff,
    verify_realization,
)

from helpers import (
    caterpillar_instance,
    path_instance,
    random_instance,
    solvable_instances,
    star_instance,
    uniform_star,
    zero_bridge_instance,
)

# sha256 of repr((sorted realization items, str(cost), trace)) for the
# `treesynth gen --seed 1` ladder instances, pinned before any check pruning
LADDER_DIGESTS = {
    (30, 10): "db3c107d366f8c2b2dd0b4eb615f91ed664082d342688d59a604596bfcf5d0a1",
    (60, 20): "22aaf820768da77a5989a4a8511596546eef21f90fb304d4d14c3c8b69441536",
}
# most max-flow runs a solve of each ladder instance may run
LADDER_FLOW_BUDGETS = {(30, 10): 25, (60, 20): 52}

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


class TestCheckPreconditions:
    def test_clean_instance(self):
        instance = build_instance(
            ["a", "b"], ["a", "b"], [("a", "b", 1)], [("a", "b", 2)]
        )
        assert optimal_cost_formula(instance) == 2

    def test_zero_requirement_edge(self):
        with pytest.raises(PreconditionViolated) as info:
            optimal_cost_formula(zero_bridge_instance())
        assert info.value.violations == [(("u", "v"), 0)]

    def test_unit_requirement_edge(self):
        instance = build_instance(
            ["a", "b"], ["a", "b"], [("a", "b", 1)], [("a", "b", 1)]
        )
        with pytest.raises(PreconditionViolated) as info:
            optimal_cost_formula(instance)
        assert info.value.violations == [(("a", "b"), 1)]


class TestOptimalCostFormula:
    def test_even_load_star_needs_no_join(self):
        instance = star_instance({("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 2})
        assert optimal_cost_formula(instance) == 4

    def test_odd_load_star_pays_half_an_edge(self):
        instance = uniform_star(3, 3)
        assert optimal_cost_formula(instance) == 5

    def test_uniform_star(self):
        assert optimal_cost_formula(uniform_star(3, 2)) == 3

    def test_violated_preconditions_raise(self):
        with pytest.raises(PreconditionViolated) as info:
            optimal_cost_formula(zero_bridge_instance())
        assert info.value.violations == [(("u", "v"), 0)]
        assert "u-v" in str(info.value)


class TestSolve:
    def test_uniform_star(self):
        solution = solve(uniform_star(3, 2))
        assert solution.cost == 3
        assert solution.formula_cost == 3
        assert solution.join.edges == ()
        assert solution.realization == Realization(
            {("t0", "t1"): 1, ("t0", "t2"): 1, ("t1", "t2"): 1}
        )
        assert solution.trace == (
            ("hub", "t0", "t1", 1),
            ("hub", "t0", "t2", 1),
            ("hub", "t1", "t2", 1),
        )

    def test_skewed_star_splits_unevenly(self):
        instance = star_instance({("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 2})
        solution = solve(instance)
        assert solution.cost == 4
        assert solution.realization == Realization(
            {("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 1}
        )
        assert solution.capacity == instance.base_capacity()

    def test_odd_star_bumps_exactly_one_spoke(self):
        instance = uniform_star(3, 3)
        solution = solve(instance)
        assert solution.cost == 5
        assert len(solution.join.edges) == 1
        assert solution.join.cost == Fraction(1, 2)
        assert verify_realization(instance, solution.realization) == []

    def test_single_terminal(self):
        instance = build_instance(["a"], ["a"], [])
        solution = solve(instance)
        assert solution.cost == 0
        assert solution.realization == Realization({})
        assert solution.trace == ()

    def test_two_terminals(self):
        instance = build_instance(["a", "b"], ["a", "b"], [("a", "b", 1)], [("a", "b", 2)])
        solution = solve(instance)
        assert solution.cost == 2
        assert solution.realization == Realization({("a", "b"): 2})

    def test_path_through_one_inner_node(self):
        instance = build_instance(
            ["a", "b"],
            ["a", "m", "b"],
            [("a", "m", 1), ("m", "b", 1)],
            [("a", "b", 2)],
        )
        solution = solve(instance)
        assert solution.cost == 4
        assert solution.realization == Realization({("a", "b"): 2})
        assert solution.trace == (("m", "a", "b", 2),)

    def test_zero_requirement_bridge_refused(self):
        with pytest.raises(PreconditionViolated) as info:
            solve(zero_bridge_instance())
        assert info.value.violations == [(("u", "v"), 0)]

    def test_unit_requirement_refused(self):
        instance = build_instance(
            ["a", "b"], ["a", "b"], [("a", "b", 1)], [("a", "b", 1)]
        )
        with pytest.raises(PreconditionViolated):
            solve(instance)

    def test_costs_are_exact_fractions(self):
        instance = star_instance(
            {("a", "b"): 3, ("a", "c"): 3, ("b", "c"): 3}, length="7/3"
        )
        solution = solve(instance)
        # 7/3 per spoke: base 9 * 7/3 = 21, join adds one spoke
        assert solution.cost == 21 + Fraction(7, 3)
        assert isinstance(solution.cost, Fraction)

    def test_literal_heavy_pair_star(self):
        instance = star_instance({("a", "b"): 3, ("a", "c"): 3, ("b", "c"): 2})
        solution = solve(instance)
        assert solution.cost == 5
        assert instance.realization_cost(brute_force_insp(instance)) == 5


class TestSolveAndCheck:
    def test_audits_the_result(self):
        solution = solve_and_check(uniform_star(4, 3))
        assert verify_realization(uniform_star(4, 3), solution.realization) == []

    def test_matches_plain_solve(self):
        instance = random_instance(11, terminals=6, inner=2)
        assert solve_and_check(instance).cost == solve(instance).cost

    def test_deep_caterpillar(self):
        # every split runs augmenting paths along the spine, through arcs
        # that already eliminated spine nodes leave behind at capacity 0
        solution = solve_and_check(caterpillar_instance(30))
        assert solution.cost == 88
        assert len(solution.trace) == 87


def test_solver_matches_brute_force_on_a_seed_sweep():
    for seed in range(40):
        instance = random_instance(seed, terminals=4, inner=1, rmin=2, rmax=3)
        expected = instance.realization_cost(brute_force_insp(instance))
        assert solve(instance).cost == expected, f"seed {seed}"


@settings(max_examples=40, deadline=None)
@given(solvable_instances())
def test_solution_invariants(instance):
    solution = solve_and_check(instance)
    assert solution.cost == solution.formula_cost
    assert solution.cost == optimal_cost_formula(instance)
    assert solution.cost >= fractional_lower_bound(instance)
    join_edges = set(solution.join.edges)
    for e in instance.tree.edges:
        expected = instance.base_capacity()[e] + (1 if e in join_edges else 0)
        assert solution.capacity[e] == expected


def test_readme_library_example_runs_as_written():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library use", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(example, namespace)
    assert namespace["sol"].cost == 3


@pytest.mark.parametrize("terminals,inner", sorted(LADDER_DIGESTS))
def test_ladder_outputs_and_traces_are_unchanged(terminals, inner):
    solution = solve(random_instance(1, terminals=terminals, inner=inner))
    blob = repr((sorted(solution.realization.items()), str(solution.cost), solution.trace))
    assert hashlib.sha256(blob.encode()).hexdigest() == LADDER_DIGESTS[(terminals, inner)]


@pytest.mark.parametrize("terminals,inner", sorted(LADDER_FLOW_BUDGETS))
def test_ladder_solves_stay_within_their_flow_budget(terminals, inner, monkeypatch):
    calls = []
    augment = maxflow._augment

    def counted(*args):
        calls.append(args)
        return augment(*args)

    instance = random_instance(1, terminals=terminals, inner=inner)
    monkeypatch.setattr(maxflow, "_augment", counted)
    solve(instance)
    assert len(calls) <= LADDER_FLOW_BUDGETS[(terminals, inner)]


def test_no_caller_reads_how_far_a_capped_flow_overshoots(monkeypatch):
    # a flow that reaches its limit reports exactly the limit, then 1,000
    # over it. Solves keep their outputs, traces and flow counts, and each
    # audit of a damaged solution (one unit off a pair of positive length)
    # its verdict and flow count: split-off compares a capped flow with >=,
    # and the audit's forest bound takes exact values only from short flows.
    # The ladder solves run no check flow; the 20/6 ones at rmax 9 run capped
    # and short ones
    augment = maxflow._augment
    overshoot, flows = [None], [0]

    def reported(graph, sources, sink, label, limit=None):
        flows[0] += 1
        value, side = augment(graph, sources, sink, label, limit)
        if side is None and overshoot[0] is not None:
            value = limit + overshoot[0]
        return value, side

    instances = [random_instance(1, *size) for size in sorted(LADDER_DIGESTS)]
    instances += [random_instance(seed, 20, 6, rmax=9) for seed in (0, 3, 7, 9)]

    def runs():
        out = []
        for instance in instances:
            flows[0] = 0
            solution = solve(instance)
            blob = repr((sorted(solution.realization.items()), str(solution.cost), solution.trace))
            out.append((hashlib.sha256(blob.encode()).hexdigest(), flows[0]))
            values = dict(solution.realization.items())
            for pair in sorted(p for p in values if instance.tree.distance(*p) > 0):
                damaged = dict(values)
                damaged[pair] -= 1
                flows[0] = 0
                out.append((verify_realization(instance, Realization(damaged)), flows[0]))
        return out

    monkeypatch.setattr(maxflow, "_augment", reported)
    natural = runs()
    digests = [digest for digest, _ in natural if isinstance(digest, str)]
    assert digests[:2] == [LADDER_DIGESTS[size] for size in sorted(LADDER_DIGESTS)]
    for overshoot[0] in (0, 1000):
        assert runs() == natural


def test_deep_chain_splits_each_node_with_no_flow(monkeypatch):
    # t0-_s0-...-_s199-t1 with r(t0, t1) = 3: every demand of an activation
    # sits on the chain, at or below the pruning floor of 0, so confirming
    # them by flow cost about N^2 / 2 calls; the degree rule splits the
    # through pair, the only pair of distinct neighbors, with none
    labels = ["t0"] + [f"_s{i}" for i in range(200)] + ["t1"]
    instance = path_instance(labels, [1] * 201, [("t0", "t1", 3)])
    calls, passes = [], []
    augment, joins = maxflow._augment, splitoff.max_spanning_joins

    def counted(*args):
        calls.append(args)
        return augment(*args)

    def counted_joins(*args):
        passes.append(args)
        return joins(*args)

    monkeypatch.setattr(maxflow, "_augment", counted)
    # every one of the 200 activations replays a single Kruskal pass
    monkeypatch.setattr(splitoff, "max_spanning_joins", counted_joins)
    solution = solve(instance)
    monkeypatch.undo()
    assert solution.cost == 603
    assert len(solution.trace) == 200
    assert calls == []
    assert len(passes) == 1
    assert verify_realization(instance, solution.realization) == []
