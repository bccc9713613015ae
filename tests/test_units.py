"""Integer length units against Fraction sums taken straight from `tree.lengths`.

A `MetricTree` holds each length as int `units` over one `scale`, and the
solve path adds those ints. Every cost it returns must still be the exact
Fraction that summing `tree.lengths` gives.
"""

import json
import random
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from treesynth import generate_document, min_cost_ij_join, parse_instance, solve
from treesynth.join import ParityInstance
from treesynth.model import MetricTree

from helpers import brute_force_join, random_instance, tree_path

MIXED_POOL = ("0", "1/2", "7/3", "0.25", "3/7", "1e-3")


def first_primes(count):
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def fraction_distance(tree, i, j):
    return sum((tree.lengths[e] for e in tree_path(tree, i, j)), Fraction(0))


def assert_costs_are_fraction_sums(instance):
    tree = instance.tree
    assert tree.scale == lcm(*(x.denominator for x in tree.lengths.values()))
    assert all(tree.units[e] == x * tree.scale for e, x in tree.lengths.items())
    for i, j in combinations(tree.nodes, 2):
        d = tree.distance(i, j)
        assert type(d) is Fraction and d == fraction_distance(tree, i, j)

    solution = solve(instance)
    base = instance.base_capacity()
    base_cost = sum((tree.lengths[e] * c for e, c in base.items()), Fraction(0))
    join_cost = sum((tree.lengths[e] for e in solution.join.edges), Fraction(0))
    capacity_cost = sum((tree.lengths[e] * c for e, c in solution.capacity.items()), Fraction(0))
    cost = sum(
        (fraction_distance(tree, i, j) * c for (i, j), c in solution.realization.items()),
        Fraction(0),
    )
    for got, want in (
        (base.cost(), base_cost),
        (solution.join.cost, join_cost),
        (solution.capacity.cost(), capacity_cost),
        (solution.formula_cost, base_cost + join_cost),
        (solution.cost, cost),
        (instance.realization_cost(solution.realization), cost),
    ):
        assert type(got) is Fraction and got == want
    return solution


def test_costs_match_fraction_sums_on_a_mixed_denominator_sweep():
    scales = set()
    for seed in range(40):
        rng = random.Random(seed)
        instance = random_instance(
            seed, terminals=rng.randint(3, 12), inner=rng.randint(0, 4), lengths=MIXED_POOL
        )
        assert_costs_are_fraction_sums(instance)
        scales.add(instance.tree.scale)
    # the pool's denominators 2, 3, 4, 7 and 1000 do meet on one tree
    assert lcm(2, 3, 4, 7, 1000) in scales


def test_costs_match_fraction_sums_with_a_distinct_prime_per_edge():
    doc = generate_document(terminals=60, inner=20, rmin=2, rmax=6, seed=1)
    primes = first_primes(len(doc["tree"]["edges"]))
    for edge, p in zip(doc["tree"]["edges"], primes):
        edge["length"] = f"1/{p}"
    instance = parse_instance(json.dumps(doc))
    assert instance.tree.scale == prod(primes)
    solution = assert_costs_are_fraction_sums(instance)
    assert len(str(solution.cost.denominator)) == 163


def test_integer_lengths_and_a_lone_node_have_scale_one():
    lone = MetricTree(["a"], [], "a")
    assert lone.scale == 1 and lone.units == {}
    assert lone.distance("a", "a") == 0
    instance = random_instance(3, terminals=8, inner=3, lengths=("0", "1", "2", "5"))
    assert instance.tree.scale == 1
    assert instance.tree.units == instance.tree.lengths
    solution = assert_costs_are_fraction_sums(instance)
    assert solution.cost.denominator == 1


def test_join_tie_break_matches_the_exhaustive_join_with_zero_lengths():
    rng = random.Random(16)
    for case in range(300):
        pool = ("0",) if case % 2 else ("0", "0", "1/2", "1/3")
        n = rng.randint(1, 10)
        names = [f"n{k}" for k in range(n)]
        edges = [(names[rng.randrange(j)], names[j], rng.choice(pool)) for j in range(1, n)]
        tree = MetricTree(names, edges, rng.choice(names))
        marks = [rng.choice("eof") for _ in names]
        p = ParityInstance(
            tree,
            frozenset(v for v, m in zip(names, marks) if m == "e"),
            frozenset(v for v, m in zip(names, marks) if m == "o"),
        )
        assert min_cost_ij_join(p) == brute_force_join(p)
