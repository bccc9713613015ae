"""Domain model: trees, requirements, instances, capacities, realizations."""

import re
from enum import IntEnum
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treesynth import (
    Instance,
    InvalidInstance,
    Realization,
    UnknownNode,
    build_instance,
    model,
    verify_realization,
)
from treesynth.model import (
    EdgeCapacity,
    MetricTree,
    RequirementMatrix,
    as_length,
    max_spanning_joins,
    node_pair,
)

from helpers import (
    cut_side,
    forest_inputs,
    largest_crossing_requirement,
    metric_trees,
    random_instance,
    side_containing,
    star_instance,
    strip_non_terminal_leaves,
    tree_path,
)


class TestNodePair:
    def test_orders_endpoints(self):
        assert node_pair("b", "a") == ("a", "b")
        assert node_pair("a", "b") == ("a", "b")

    def test_same_node_passes_through(self):
        assert node_pair("a", "a") == ("a", "a")


class TestAsLength:
    def test_accepts_exact_forms(self):
        assert as_length(2) == Fraction(2)
        assert as_length("1/2") == Fraction(1, 2)
        assert as_length("0.5") == Fraction(1, 2)
        assert as_length(Fraction(7, 3)) == Fraction(7, 3)

    def test_returns_a_fraction_as_it_is(self):
        length = Fraction(7, 3)
        assert as_length(length) is length
        tree = MetricTree(["a", "b"], [("a", "b", length)], "a")
        assert tree.lengths[("a", "b")] is length

    def test_rejects_floats(self):
        with pytest.raises(InvalidInstance):
            as_length(0.5)

    def test_rejects_garbage(self):
        with pytest.raises(InvalidInstance):
            as_length("not a number")
        with pytest.raises(InvalidInstance):
            as_length(None)

    def test_refuses_exponents_beyond_the_digit_limit(self):
        assert as_length("1e4300") == 10**4300
        assert as_length("1E-4300") == Fraction(1, 10**4300)
        for huge in ("1e4301", "1e5000", "1e-5000", "1e1000000000"):
            with pytest.raises(InvalidInstance, match="cannot read"):
                as_length(huge)
        with pytest.raises(InvalidInstance):
            build_instance(["a", "b"], ["a", "b"], [("a", "b", "1e5000")], [("a", "b", 2)])

    def test_rejects_booleans(self):
        with pytest.raises(InvalidInstance, match="edge length True is a bool"):
            as_length(True)
        with pytest.raises(InvalidInstance, match="edge length True is a bool"):
            build_instance(["a", "b"], ["a", "b"], [("a", "b", True)], [("a", "b", 2)])


def path_tree():
    return MetricTree(["a", "m", "b"], [("a", "m", 1), ("m", "b", 2)], "a")


class TestMetricTree:
    def test_preserves_orders(self):
        tree = path_tree()
        assert tree.nodes == ("a", "m", "b")
        assert tree.edges == (("a", "m"), ("b", "m"))
        assert tree.root == "a"

    def test_distances(self):
        tree = path_tree()
        assert tree.distance("a", "b") == 3
        assert tree.distance("b", "a") == 3
        assert tree.distance("a", "m") == 1
        assert tree.distance("a", "a") == 0

    def test_distance_unknown_node(self):
        with pytest.raises(UnknownNode):
            path_tree().distance("a", "zz")

    def test_neighbors_and_leaves(self):
        tree = path_tree()
        assert set(tree.neighbors("m")) == {"a", "b"}
        assert len(tree.neighbors("m")) == 2
        assert tree.leaves() == ("a", "b")
        with pytest.raises(UnknownNode):
            tree.neighbors("zz")

    def test_single_node_tree(self):
        tree = MetricTree(["a"], [], "a")
        assert tree.leaves() == ("a",)
        assert tree.distance("a", "a") == 0

    def test_side_containing(self):
        tree = path_tree()
        assert side_containing(tree, ("a", "m"), "a") == {"a"}
        assert side_containing(tree, ("a", "m"), "m") == {"m", "b"}
        assert side_containing(tree, ("m", "a"), "b") == {"m", "b"}

    def test_side_containing_errors(self):
        tree = path_tree()
        with pytest.raises(UnknownNode, match="is not a tree edge"):
            side_containing(tree, ("a", "b"), "a")
        with pytest.raises(UnknownNode):
            side_containing(tree, ("a", "m"), "zz")

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(InvalidInstance, match="duplicate node identifiers"):
            MetricTree(["a", "a"], [], "a")

    def test_rejects_unknown_root(self):
        with pytest.raises(UnknownNode):
            MetricTree(["a"], [], "zz")

    def test_rejects_edge_with_unknown_endpoint(self):
        with pytest.raises(UnknownNode):
            MetricTree(["a", "b"], [("a", "zz", 1)], "a")

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInstance, match="self-loop at 'a'"):
            MetricTree(["a", "b"], [("a", "a", 1)], "a")

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InvalidInstance, match="duplicate edge a-b"):
            MetricTree(["a", "b"], [("a", "b", 1), ("b", "a", 2)], "a")

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(InvalidInstance, match="3 nodes need 2 edges, got 1"):
            MetricTree(["a", "b", "c"], [("a", "b", 1)], "a")

    def test_rejects_cycle_with_isolated_node(self):
        # edge count matches n-1 but the cycle leaves d disconnected
        with pytest.raises(InvalidInstance, match="edge list is disconnected"):
            MetricTree(
                ["a", "b", "c", "d"],
                [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)],
                "a",
            )

    def test_rejects_negative_length(self):
        with pytest.raises(InvalidInstance, match="edge a-b has negative length -1"):
            MetricTree(["a", "b"], [("a", "b", "-1")], "a")

    def test_zero_length_is_fine(self):
        tree = MetricTree(["a", "b"], [("a", "b", 0)], "a")
        assert tree.distance("a", "b") == 0

    def test_equality(self):
        assert path_tree() == path_tree()
        other = MetricTree(["a", "m", "b"], [("a", "m", 1), ("m", "b", 3)], "a")
        assert path_tree() != other


@given(metric_trees())
def test_tree_distance_is_a_metric(tree):
    nodes = tree.nodes
    for i in nodes:
        assert tree.distance(i, i) == 0
        for j in nodes:
            d = tree.distance(i, j)
            assert d == tree.distance(j, i)
            assert d >= 0
            for k in nodes:
                assert d <= tree.distance(i, k) + tree.distance(k, j)


@given(metric_trees(min_nodes=2))
def test_edge_sides_partition_the_nodes(tree):
    all_nodes = set(tree.nodes)
    for u, v in tree.edges:
        left = side_containing(tree, (u, v), u)
        right = side_containing(tree, (u, v), v)
        assert left | right == all_nodes
        assert not (left & right)
        assert tree.distance(u, v) == tree.lengths[(u, v)]


@given(metric_trees(min_nodes=2, root_elsewhere=True))
def test_distance_sums_the_edges_that_separate_the_endpoints(tree):
    for i in tree.nodes:
        for j in tree.nodes:
            crossed = [e for e in tree.edges if j not in side_containing(tree, e, i)]
            assert tree.distance(i, j) == sum(tree.lengths[e] for e in crossed)
            assert sorted(tree_path(tree, i, j)) == sorted(crossed)


@st.composite
def sparse_instances(draw):
    """A random tree, a random terminal set covering its leaves and a random
    root among them, and requirements on a random subset of terminal pairs."""
    tree = draw(metric_trees(min_nodes=2, root_elsewhere=True))
    leaves = set(tree.leaves())
    terminals = [v for v in tree.nodes if v in leaves or draw(st.booleans())]
    terminals = draw(st.permutations(terminals))
    requirements = [
        (terminals[a], terminals[b], draw(st.integers(0, 6)))
        for a in range(len(terminals))
        for b in range(a + 1, len(terminals))
        if draw(st.booleans())
    ]
    edges = [(u, v, tree.lengths[(u, v)]) for u, v in tree.edges]
    return build_instance(terminals, tree.nodes, edges, requirements)


@given(metric_trees(max_nodes=14), st.data())
def test_build_prunes_exactly_the_non_terminal_leaves(tree, data):
    # nodes and edges in a random input order and orientation; the first
    # terminal is the root
    nodes = data.draw(st.permutations(tree.nodes))
    edges = [
        (v, u, tree.lengths[(u, v)]) if data.draw(st.booleans()) else (u, v, tree.lengths[(u, v)])
        for u, v in data.draw(st.permutations(tree.edges))
    ]
    terminals = data.draw(st.lists(st.sampled_from(nodes), min_size=1, unique=True))
    instance = build_instance(terminals, nodes, edges)
    kept_nodes, kept_edges = strip_non_terminal_leaves(nodes, edges, set(terminals))
    expected = MetricTree(kept_nodes, kept_edges, terminals[0])
    assert instance.tree == expected
    assert instance.tree.units == expected.units and instance.tree.scale == expected.scale
    assert set(instance.tree.leaves()) <= set(terminals)


@given(sparse_instances())
def test_base_capacity_is_the_cut_requirement_of_every_edge(instance):
    base = instance.base_capacity()
    for e in instance.tree.edges:
        assert base[e] == instance.cut_requirement(cut_side(instance, e))


@st.composite
def requirement_shapes(draw):
    """Instances over any nonempty terminal subset (non-terminal leaves are
    pruned), with random, all-zero or all-equal requirements."""
    tree = draw(metric_trees(min_nodes=1, max_nodes=9))
    terminals = draw(st.lists(st.sampled_from(tree.nodes), min_size=1, unique=True))
    shape = draw(st.sampled_from(["random", "zero", "equal"]))
    equal = draw(st.integers(1, 6))
    requirements = []
    for a in range(len(terminals)):
        for b in range(a + 1, len(terminals)):
            r = {"random": draw(st.integers(0, 6)), "zero": 0, "equal": equal}[shape]
            requirements.append((terminals[a], terminals[b], r))
    edges = [(u, v, tree.lengths[(u, v)]) for u, v in tree.edges]
    return build_instance(terminals, tree.nodes, edges, requirements)


def test_climbed_base_matches_the_path_walk_and_sums_match_the_paths():
    # the base as it was built from edge lists: every forest path walked by
    # `tree_path`, each edge keeping the largest requirement routed over it
    for seed in range(120):
        k = 2 + seed % 17
        rmin = seed % 3
        instance = random_instance(seed, k, seed % (k // 2 + 1), rmin=rmin, rmax=rmin + seed % 5)
        tree = instance.tree
        expected = dict.fromkeys(tree.edges, 0)
        for (s, t), r in instance.forest:
            for e in tree_path(tree, s, t):
                expected[e] = max(expected[e], r)
        assert dict(instance.base_capacity().items()) == expected, seed
        for i, j in combinations(tree.nodes, 2):
            assert tree.path_units(i, j) == sum(tree.units[e] for e in tree_path(tree, i, j)), (seed, i, j)


@given(requirement_shapes())
def test_base_capacity_is_the_largest_requirement_on_each_path(instance):
    # reference: walk the tree path of every requirement pair
    expected = dict.fromkeys(instance.tree.edges, 0)
    for (s, t), r in instance.requirements.pairs():
        for e in tree_path(instance.tree, s, t):
            expected[e] = max(expected[e], r)
    assert dict(instance.base_capacity().items()) == expected


@given(forest_inputs())
def test_the_forest_decides_every_cut_and_is_built_once(args):
    calls = []
    joins = model.max_spanning_joins

    def counted(*joins_args):
        calls.append(joins_args)
        return joins(*joins_args)

    model.max_spanning_joins = counted
    try:
        instance = build_instance(*args)
        assert len(calls) == 1
        instance.base_capacity()
        trivial = Realization(instance.requirements.pairs())
        assert verify_realization(instance, trivial) == []
        verify_realization(instance, Realization())
        assert len(calls) == 1
    finally:
        model.max_spanning_joins = joins
    values = [r for _, r in instance.requirements.pairs()]
    if values:
        assert instance.forest[0][1] == max(values)
    else:
        assert instance.forest == ()
    terminals = instance.terminals
    for size in range(1, len(terminals)):
        for side in combinations(terminals, size):
            expected = largest_crossing_requirement(instance, frozenset(side))
            assert instance.cut_requirement(side) == expected


def reference_joins(nodes, weighted_pairs):
    """Kruskal's joins with the weights sorted by a negated key."""
    up = {v: v for v in nodes}

    def find(v):
        while up[v] != v:
            v = up[v]
        return v

    joins = []
    for (u, v), weight in sorted(weighted_pairs, key=lambda item: -item[1]):
        if len(joins) == len(up) - 1:
            break
        ru, rv = find(u), find(v)
        if ru != rv:
            up[ru] = rv
            joins.append(((u, v), weight, ru, rv))
    return joins


@given(st.data())
def test_max_spanning_joins_keep_input_order_among_ties(data):
    # few weights make ties; a wide or all-distinct range leaves the top
    # weight short of spanning, so the sorted lighter pairs decide
    nodes = [f"n{i}" for i in range(data.draw(st.integers(1, 7)))]
    pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    weight = data.draw(st.sampled_from([st.integers(0, 2), st.integers(-(10**6), 10**6)]))
    distinct = data.draw(st.booleans())
    weighted_pairs = data.draw(
        st.lists(st.tuples(pair, weight), max_size=20, unique_by=itemgetter(1) if distinct else None)
    )
    expected = reference_joins(nodes, weighted_pairs)
    assert list(max_spanning_joins(nodes, weighted_pairs)) == expected
    assert list(max_spanning_joins(nodes, iter(weighted_pairs))) == expected


def test_max_spanning_joins_of_no_pairs_or_one_node_are_empty():
    def unread():
        raise AssertionError("one node needs no pair")
        yield

    assert list(max_spanning_joins("abc", [])) == []
    assert list(max_spanning_joins("abc", iter([]))) == []
    assert list(max_spanning_joins("a", unread())) == []
    assert list(max_spanning_joins("a", [(("a", "a"), 1)])) == []


class Unsortable(int):
    """A weight that `max` and `==` can read but a sort cannot order."""

    def __lt__(self, other):
        raise AssertionError("a weight was sorted")


def test_top_weight_pairs_that_span_leave_the_rest_unsorted():
    w = [Unsortable(x) for x in range(4)]
    pairs = [
        (("a", "b"), w[1]),
        (("b", "c"), w[3]),
        (("a", "d"), w[2]),
        (("c", "d"), w[3]),
        (("b", "d"), w[3]),
        (("a", "c"), w[3]),
        (("a", "c"), w[0]),
    ]
    # the weight-3 pairs span a-d, so the others are never ordered
    joins = list(max_spanning_joins("abcd", pairs))
    assert [pair for pair, _, _, _ in joins] == [("b", "c"), ("c", "d"), ("a", "c")]
    # with e left out of them, the lighter pairs must be sorted
    with pytest.raises(AssertionError, match="a weight was sorted"):
        list(max_spanning_joins("abcde", pairs))


def test_equal_weights_join_in_input_order():
    pairs = [(("c", "d"), 1), (("a", "b"), 1), (("b", "c"), 1), (("a", "d"), 1)]
    joins = [pair for pair, _, _, _ in max_spanning_joins("abcd", pairs)]
    assert joins == [("c", "d"), ("a", "b"), ("b", "c")]


class Level(IntEnum):
    NONE = 0
    HIGH = 3


class TestRequirementMatrix:
    def test_defaults_to_zero(self):
        matrix = RequirementMatrix([("a", "b", 3)])
        assert matrix.get("a", "b") == 3
        assert matrix.get("b", "a") == 3
        assert matrix.get("a", "c") == 0

    def test_zero_entries_are_dropped(self):
        matrix = RequirementMatrix([("a", "b", 0)])
        assert dict(matrix.pairs()) == {}
        assert build_instance(["a", "b"], ["a", "b"], [("a", "b", 1)], matrix).forest == ()

    def test_pairs_and_max(self):
        matrix = RequirementMatrix([("a", "b", 3), ("c", "a", 5)])
        assert dict(matrix.pairs()) == {("a", "b"): 3, ("a", "c"): 5}
        instance = build_instance("abc", "abc", [("a", "b", 1), ("a", "c", 1)], matrix)
        assert instance.forest == ((("a", "c"), 5), (("a", "b"), 3))

    def test_rejects_duplicates_across_orientations(self):
        with pytest.raises(InvalidInstance, match="pair a-b appears twice"):
            RequirementMatrix([("a", "b", 3), ("b", "a", 3)])

    def test_rejects_self_pair(self):
        with pytest.raises(InvalidInstance, match="requirement pairs 'a' with itself"):
            RequirementMatrix([("a", "a", 3)])

    def test_zero_entries_count_as_seen_pairs(self):
        with pytest.raises(InvalidInstance, match="pair a-b appears twice"):
            RequirementMatrix([("a", "b", 0), ("b", "a", 3)])
        with pytest.raises(InvalidInstance, match="pair a-b appears twice"):
            RequirementMatrix([("a", "b", 3), ("b", "a", 0)])

    def test_positive_entries_keep_their_order(self):
        matrix = RequirementMatrix([("c", "b", 2), ("a", "c", 0), ("a", "b", 1)])
        assert list(matrix.pairs()) == [(("b", "c"), 2), (("a", "b"), 1)]

    def test_accepts_int_subclasses(self):
        matrix = RequirementMatrix([("a", "b", Level.HIGH), ("a", "c", Level.NONE)])
        assert dict(matrix.pairs()) == {("a", "b"): 3}
        assert matrix.get("b", "a") is Level.HIGH

    def test_from_values_keeps_the_table(self):
        values = {("a", "b"): 3}
        matrix = RequirementMatrix.from_values(values)
        assert matrix.values is values
        assert matrix == RequirementMatrix([("b", "a", 3)])

    def test_build_instance_takes_a_matrix(self):
        matrix = RequirementMatrix([("a", "b", 2)])
        instance = build_instance(["a", "b"], ["a", "b"], [("a", "b", 1)], matrix)
        assert instance.requirements is matrix
        assert instance == build_instance(["a", "b"], ["a", "b"], [("a", "b", 1)], [("a", "b", 2)])

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidInstance):
            RequirementMatrix([("a", "b", -1)])
        with pytest.raises(InvalidInstance):
            RequirementMatrix([("a", "b", True)])
        with pytest.raises(InvalidInstance):
            RequirementMatrix([("a", "b", "3")])


def star_332():
    return star_instance({("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 2})


class TestInstance:
    def test_build_sets_root_to_first_terminal(self):
        instance = star_332()
        assert instance.tree.root == "a"
        assert instance.terminals == ("a", "b", "c")
        assert instance.inner_nodes() == ("hub",)
        assert instance.terminal_set == {"a", "b", "c"}

    def test_build_requires_terminals(self):
        with pytest.raises(InvalidInstance):
            build_instance([], ["a"], [])

    def test_build_rejects_missing_terminal(self):
        with pytest.raises(InvalidInstance, match="terminal 'zz' is missing from the tree nodes"):
            build_instance(["a", "zz"], ["a", "b"], [("a", "b", 1)])

    def test_build_prunes_non_terminal_branches(self):
        instance = build_instance(
            ["a", "b"],
            ["a", "b", "m", "x", "y"],
            [("a", "m", 1), ("m", "b", 1), ("m", "x", 1), ("x", "y", 1)],
        )
        assert instance.tree.nodes == ("a", "b", "m")
        assert set(instance.tree.edges) == {("a", "m"), ("b", "m")}
        assert instance.tree.distance("a", "b") == 2

    def test_direct_instance_requires_terminals(self):
        tree = MetricTree(["a"], [], "a")
        with pytest.raises(InvalidInstance, match="^at least one terminal is required$"):
            Instance([], tree, RequirementMatrix())

    def test_direct_instance_rejects_a_terminal_missing_from_the_tree(self):
        tree = MetricTree(["a", "b"], [("a", "b", 1)], "a")
        with pytest.raises(InvalidInstance, match="^terminal 'zz' is missing from the tree$"):
            Instance(["a", "b", "zz"], tree, RequirementMatrix())

    def test_direct_instance_rejects_non_terminal_leaf(self):
        tree = MetricTree(["a", "b", "x"], [("a", "b", 1), ("b", "x", 1)], "a")
        with pytest.raises(InvalidInstance):
            Instance(["a", "b"], tree, RequirementMatrix())

    def test_direct_instance_rejects_non_terminal_root(self):
        tree = MetricTree(["a", "b"], [("a", "b", 1)], "b")
        with pytest.raises(InvalidInstance):
            Instance(["a"], tree, RequirementMatrix())

    def test_requirements_must_pair_terminals(self):
        with pytest.raises(UnknownNode):
            build_instance(
                ["a", "b"],
                ["a", "b", "m"],
                [("a", "m", 1), ("m", "b", 1)],
                [("a", "m", 2)],
            )

    def test_cut_sides(self):
        instance = star_332()
        assert cut_side(instance, ("a", "hub")) == {"a"}
        assert cut_side(instance, ("b", "hub")) == {"a", "c"}
        assert cut_side(instance, ("hub", "c")) == {"a", "b"}

    def test_cut_requirements(self):
        instance = star_332()
        assert instance.cut_requirement({"a"}) == 3
        assert instance.cut_requirement({"a", "c"}) == 3
        assert instance.cut_requirement({"a", "b"}) == 2
        assert instance.cut_requirement({"c"}) == 2

    def test_cut_requirement_rejects_degenerate_sides(self):
        instance = star_332()
        with pytest.raises(UnknownNode, match="nonempty proper subset"):
            instance.cut_requirement(set())
        with pytest.raises(UnknownNode, match="nonempty proper subset"):
            instance.cut_requirement({"a", "b", "c"})
        with pytest.raises(UnknownNode):
            instance.cut_requirement({"a", "hub"})

    def test_base_capacity(self):
        instance = star_332()
        base = instance.base_capacity()
        assert base[("a", "hub")] == 3
        assert base[("b", "hub")] == 3
        assert base[("c", "hub")] == 2
        assert base.cost() == 4

    def test_realization_cost(self):
        instance = star_332()
        cost = instance.realization_cost(
            Realization({("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 1})
        )
        assert cost == 4

    def test_realization_cost_rejects_stray_pair(self):
        with pytest.raises(UnknownNode, match="'a'-'hub' is not a terminal pair"):
            star_332().realization_cost(Realization({("a", "hub"): 1}))


class TestEdgeCapacity:
    def test_requires_every_edge(self):
        tree = path_tree()
        with pytest.raises(UnknownNode, match="capacity missing for edges"):
            EdgeCapacity(tree, {("a", "m"): 1})

    def test_rejects_foreign_edge(self):
        tree = path_tree()
        with pytest.raises(UnknownNode, match="is not an edge of the tree"):
            EdgeCapacity(tree, {("a", "m"): 1, ("b", "m"): 1, ("a", "b"): 1})

    def test_rejects_bad_values(self):
        tree = path_tree()
        with pytest.raises(InvalidInstance):
            EdgeCapacity(tree, {("a", "m"): -1, ("b", "m"): 1})
        with pytest.raises(InvalidInstance):
            EdgeCapacity(tree, {("a", "m"): True, ("b", "m"): 1})

    def test_rejects_a_repeated_edge(self):
        tree = path_tree()
        with pytest.raises(InvalidInstance, match=re.escape("capacity on ('a', 'm') is given twice")):
            EdgeCapacity(tree, {("a", "m"): 1, ("m", "a"): 5, ("b", "m"): 2})

    def test_load_and_cost(self):
        base = star_332().base_capacity()
        assert base.load("hub") == 8
        assert base.load("a") == 3
        assert base.cost() == Fraction(4)

    def test_lookup_orients_edges(self):
        base = star_332().base_capacity()
        assert base[("hub", "a")] == 3
        with pytest.raises(UnknownNode, match="is not an edge of the tree"):
            base[("a", "b")]

    def test_bump_returns_a_new_capacity(self):
        base = star_332().base_capacity()
        bumped = base.bump([("a", "hub"), ("hub", "c")])
        assert bumped[("a", "hub")] == 4
        assert bumped[("c", "hub")] == 3
        assert base[("a", "hub")] == 3
        assert bumped.cost() == base.cost() + 1


class TestRealization:
    def test_drops_zeros_and_orients(self):
        r = Realization({("b", "a"): 2, ("a", "c"): 0})
        assert r.get("a", "b") == 2
        assert r.get("c", "a") == 0
        assert dict(r.items()) == {("a", "b"): 2}
        assert dict(Realization({}).items()) == {}

    def test_rejects_bad_entries(self):
        with pytest.raises(InvalidInstance):
            Realization({("a", "a"): 1})
        with pytest.raises(InvalidInstance):
            Realization({("a", "b"): -1})
        with pytest.raises(InvalidInstance):
            Realization({("a", "b"): Fraction(1, 2)})
        with pytest.raises(InvalidInstance):
            Realization([(("a", "b"), 1), (("b", "a"), 1)])

    def test_zero_entries_count_as_seen_pairs(self):
        message = re.escape("pair ('a', 'b') appears twice")
        with pytest.raises(InvalidInstance, match=message):
            Realization([(("a", "b"), 0), (("a", "b"), 3)])
        with pytest.raises(InvalidInstance, match=message):
            Realization([(("a", "b"), 3), (("b", "a"), 0)])

    def test_equality(self):
        assert Realization({("a", "b"): 1}) == Realization([(("b", "a"), 1)])
        assert Realization({("a", "b"): 1}) != Realization({("a", "b"): 2})


@given(metric_trees(min_nodes=2), st.data())
def test_capacity_cost_matches_manual_sum(tree, data):
    values = {e: data.draw(st.integers(0, 5)) for e in tree.edges}
    capacity = EdgeCapacity(tree, values)
    assert capacity.cost() == sum(tree.lengths[e] * c for e, c in values.items())
    for v in tree.nodes:
        incident = [e for e in tree.edges if v in e]
        assert capacity.load(v) == sum(values[e] for e in incident)
