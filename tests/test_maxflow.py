"""Undirected max-flow and flow-equivalent trees."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesynth import UnknownNode, maxflow
from treesynth.maxflow import (
    CapacitatedMultigraph,
    all_pairs_connectivity,
    max_flow,
)

from helpers import add_capacity, ids, name_flow, reference_augment


def graph_of(nodes, caps):
    return CapacitatedMultigraph(nodes, caps)


class TestCapacitatedMultigraph:
    def test_set_and_get(self):
        g = graph_of("ab", {})
        assert g.capacity("a", "b") == 0
        g.set_capacity("a", "b", 3)
        assert g.capacity("a", "b") == 3
        assert g.capacity("b", "a") == 3
        add_capacity(g, "b", "a", -1)
        assert g.capacity("a", "b") == 2

    def test_zero_capacity_removes_the_pair(self):
        g = graph_of("ab", {("a", "b"): 2})
        g.set_capacity("a", "b", 0)
        assert g.neighbors("a") == ()
        assert dict(g.positive_pairs()) == {}

    def test_rejects_bad_capacities(self):
        g = graph_of("ab", {})
        with pytest.raises(ValueError):
            g.set_capacity("a", "b", -1)
        with pytest.raises(ValueError):
            g.set_capacity("a", "b", True)
        with pytest.raises(ValueError):
            g.set_capacity("a", "b", 1.5)
        with pytest.raises(ValueError):
            add_capacity(g, "a", "b", -1)

    def test_rejects_unknown_nodes(self):
        g = graph_of("ab", {})
        with pytest.raises(UnknownNode):
            g.set_capacity("a", "zz", 1)
        with pytest.raises(UnknownNode):
            g.neighbors("zz")
        with pytest.raises(UnknownNode):
            CapacitatedMultigraph(["a", "a"])

    def test_loops_carry_no_degree(self):
        g = graph_of("ab", {("a", "b"): 1})
        with pytest.raises(UnknownNode, match="a loop at 'a' cannot carry capacity"):
            g.set_capacity("a", "a", 4)
        assert g.degree("a") == 1
        assert g.neighbors("a") == ("b",)
        assert dict(g.positive_pairs()) == {("a", "b"): 1}
        with pytest.raises(UnknownNode, match="a loop at 'a' cannot carry capacity"):
            graph_of("ab", {("a", "a"): 4, ("a", "b"): 1})

    @pytest.mark.parametrize(
        "u, v, value, missing",
        [
            ("zz", "a", True, "zz"),
            ("a", "zz", -1, "zz"),
            ("a", "zz", True, "zz"),
            ("zz", "zz", 1, "zz"),
            ("zz", "zz", True, "zz"),
            ("zz", "yy", -1, "zz"),
            ("a", "yy", 1.5, "yy"),
        ],
    )
    def test_an_unknown_endpoint_is_named_before_a_bad_value(self, u, v, value, missing):
        # a call with an unknown endpoint and a bool, a negative value or a
        # loop fails on the first unknown endpoint, and changes no degree
        g = graph_of("ab", {("a", "b"): 2})
        degrees = list(g._degree)
        with pytest.raises(UnknownNode, match=f"^unknown node {missing!r}$"):
            g.set_capacity(u, v, value)
        assert g._degree == degrees
        assert graph_state(g) == ({("a", "b"): 2}, [2, 2])

    def test_nodes_and_contains(self):
        g = graph_of("ab", {})
        assert g.nodes == ("a", "b")
        assert "a" in g
        assert "zz" not in g

    def test_degree_follows_set_and_add(self):
        g = graph_of("abc", {("a", "b"): 2})
        add_capacity(g, "a", "c", 3)
        assert [g.degree(v) for v in "abc"] == [5, 2, 3]
        g.set_capacity("b", "a", 0)
        assert [g.degree(v) for v in "abc"] == [3, 0, 3]
        add_capacity(g, "a", "b", 4)
        assert [g.degree(v) for v in "abc"] == [7, 4, 3]
        with pytest.raises(ValueError):
            add_capacity(g, "a", "c", -4)
        assert [g.degree(v) for v in "abc"] == [7, 4, 3]


def built_entry_by_entry(nodes, entries):
    g = CapacitatedMultigraph(nodes)
    for (u, v), c in entries.items():
        g.set_capacity(u, v, c)
    return g


def build_outcome(build, nodes, entries):
    """The exception a build raises, type and message, or the arc arrays and
    degrees of the graph it returns."""
    try:
        g = build(nodes, entries)
    except Exception as exc:
        return type(exc), str(exc)
    return g._head, g._to, g._cap, g._arc, g._degree


class TestOnePassBuild:
    """The constructor is the same set_capacity calls, in entry order: its
    outcome, graph or error, is theirs."""

    @pytest.mark.parametrize(
        "entries",
        [
            {("a", "b"): 2, ("a", "zz"): 1},
            {("zz", "a"): True},
            {("a", "b"): 2, ("c", "c"): 1},
            {("a", "b"): True},
            {("a", "b"): 1.0},
            {("b", "c"): 3, ("a", "b"): -1},
            {("a", "b"): 0, ("b", "c"): 2},
            {("a", "b"): 2, ("b", "a"): 3},
            {("a", "b"): 2, ("b", "a"): 0, ("a", "c"): 1},
            {("c", "a"): 4, ("b", "c"): 1, ("a", "c"): 4},
        ],
    )
    def test_matches_set_capacity_calls(self, entries):
        outcome = build_outcome(CapacitatedMultigraph, "abc", entries)
        assert outcome == build_outcome(built_entry_by_entry, "abc", entries)

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from("abcdz"), st.sampled_from("abcdz")),
            st.one_of(st.integers(-2, 4), st.booleans(), st.sampled_from((1.0, "1", None))),
            max_size=8,
        )
    )
    def test_random_entries_match_set_capacity_calls(self, entries):
        outcome = build_outcome(CapacitatedMultigraph, "abcd", entries)
        assert outcome == build_outcome(built_entry_by_entry, "abcd", entries)


def graph_state(g):
    return dict(g.positive_pairs()), [g.degree(v) for v in g.nodes]


class TestSplit:
    def test_moves_capacity_and_changes_only_the_active_degree(self):
        g = graph_of("suwx", {("s", "u"): 3, ("s", "w"): 2, ("s", "x"): 1})
        g.split("s", "u", "w", 2)
        assert dict(g.positive_pairs()) == {("s", "u"): 1, ("s", "x"): 1, ("u", "w"): 2}
        assert [g.degree(v) for v in "suwx"] == [2, 3, 2, 1]
        assert g.neighbors("w") == ("u",)
        g.split("s", "u", "w", -2)
        assert dict(g.positive_pairs()) == {("s", "u"): 3, ("s", "w"): 2, ("s", "x"): 1}
        assert [g.degree(v) for v in "suwx"] == [6, 3, 2, 1]
        assert g.neighbors("u") == ("s",)

    def test_adds_to_an_existing_pair(self):
        g = graph_of("suw", {("s", "u"): 2, ("s", "w"): 2, ("u", "w"): 1})
        g.split("s", "w", "u", 1)
        assert dict(g.positive_pairs()) == {("s", "u"): 1, ("s", "w"): 1, ("u", "w"): 2}
        assert [g.degree(v) for v in "suw"] == [2, 3, 3]
        g.split("s", "u", "w", 0)
        assert dict(g.positive_pairs()) == {("s", "u"): 1, ("s", "w"): 1, ("u", "w"): 2}

    @pytest.mark.parametrize(
        "s, u, w, amount, error",
        [
            ("s", "u", "zz", 1, UnknownNode),
            ("zz", "u", "w", 1, UnknownNode),
            ("s", "u", "u", 1, UnknownNode),
            ("s", "s", "u", 1, UnknownNode),
            ("s", "u", "s", 1, UnknownNode),
            # y has no arc to s
            ("s", "u", "y", 1, UnknownNode),
            ("s", "u", "w", 3, ValueError),
            ("s", "w", "u", 3, ValueError),
            # (u, w) carries 1 and (u, x) nothing
            ("s", "u", "w", -2, ValueError),
            ("s", "u", "x", -1, ValueError),
            ("s", "u", "w", 1.5, ValueError),
            ("s", "u", "w", True, ValueError),
        ],
    )
    def test_errors_leave_the_graph_unchanged(self, s, u, w, amount, error):
        g = graph_of("suwxy", {("s", "u"): 4, ("s", "w"): 2, ("s", "x"): 2, ("u", "w"): 1, ("x", "y"): 1})
        before = graph_state(g)
        with pytest.raises(error):
            g.split(s, u, w, amount)
        assert graph_state(g) == before
        # a later legal split still sees the graph it would have
        g.split("s", "u", "x", 2)
        assert dict(g.positive_pairs())[("u", "x")] == 2


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(combinations("abcd", 2))),
            st.sampled_from(("set", "add", "split")),
            st.integers(-3, 3),
            st.booleans(),
        ),
        max_size=25,
    )
)
def test_degree_is_the_sum_of_incident_capacities(steps):
    """After any run of sets, adds and splits, pairs dropped to 0 and raised
    again included, each node's degree is the capacity summed over its pairs.
    A split at s moves capacity from (s, u) and (s, v) onto (u, v) and changes
    no degree but s's; one that raises leaves the graph as it was."""
    # a star at a, so splits there find their arcs; other pairs start absent
    g = graph_of("abcd", {("a", "b"): 2, ("a", "c"): 2, ("a", "d"): 2})
    for (u, v), kind, amount, first in steps:
        if kind == "split":
            s = [x for x in g.nodes if x not in (u, v)][0 if first else 1]
            before = graph_state(g)
            caps = [g.capacity(*pair) for pair in ((s, u), (s, v), (u, v))]
            # mostly legal amounts; the error cases have a test of their own
            amount = max(-caps[2], min(amount, caps[0], caps[1]))
            try:
                g.split(s, u, v, amount)
            except (UnknownNode, ValueError):
                assert graph_state(g) == before
            else:
                after = [g.capacity(*pair) for pair in ((s, u), (s, v), (u, v))]
                assert after == [caps[0] - amount, caps[1] - amount, caps[2] + amount]
                assert min(after) >= 0
                expected = [d - 2 * amount if x == s else d for x, d in zip(g.nodes, before[1])]
                assert [g.degree(x) for x in g.nodes] == expected
        elif kind == "add" and g.capacity(u, v) + amount >= 0:
            add_capacity(g, u, v, amount)
        else:
            g.set_capacity(u, v, abs(amount))
        for x in g.nodes:
            assert g.degree(x) == sum(g.capacity(x, y) for y in g.nodes if y != x)
        assert list(g.degrees()) == [(x, g.degree(x)) for x in g.nodes]


class TestMaxFlow:
    def test_triangle_doubles_the_direct_edge(self):
        g = graph_of("abc", {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1})
        assert name_flow(g, ("a",), {"b"})[0] == 2

    def test_star_bottleneck(self):
        g = graph_of("abch", {("a", "h"): 3, ("b", "h"): 3, ("c", "h"): 2})
        assert name_flow(g, ("a",), {"b"})[0] == 3
        assert name_flow(g, ("a",), {"c"})[0] == 2

    def test_path_bottleneck(self):
        g = graph_of("abc", {("a", "b"): 5, ("b", "c"): 2})
        assert name_flow(g, ("a",), {"c"})[0] == 2

    def test_disconnected_pair(self):
        g = graph_of("abcd", {("a", "b"): 5, ("c", "d"): 5})
        assert name_flow(g, ("a",), {"c"})[0] == 0

    def test_removed_pairs_carry_no_flow(self):
        g = graph_of("abc", {("a", "b"): 9, ("a", "c"): 1, ("b", "c"): 1})
        g.set_capacity("a", "b", 0)
        assert name_flow(g, ("a",), {"b"})[0] == name_flow(g, ("b",), {"a"})[0] == 1
        g.set_capacity("a", "b", 2)
        assert name_flow(g, ("a",), {"b"})[0] == 3

    def test_endpoint_errors(self):
        g = graph_of("ab", {("a", "b"): 1})
        with pytest.raises(UnknownNode, match="flow endpoints must differ, got 'a' in the sink's class"):
            max_flow(g, (0,), 0)
        with pytest.raises(UnknownNode, match="unknown node index 2"):
            max_flow(g, (0,), 2)

    def test_source_set_errors(self):
        g = graph_of("abc", {("a", "b"): 1, ("b", "c"): 1})
        with pytest.raises(UnknownNode, match="unknown node index 3"):
            max_flow(g, (0, 3), 2)
        with pytest.raises(UnknownNode, match="unknown node index -1"):
            max_flow(g, (0, -1), 2)
        with pytest.raises(UnknownNode, match="unknown node index 3"):
            max_flow(g, (0, 1), 3)
        with pytest.raises(UnknownNode, match="at least one source"):
            max_flow(g, (), 2)
        with pytest.raises(UnknownNode, match="flow endpoints must differ, got 'c' in the sink's class"):
            max_flow(g, (0, 2), 2)

    def test_sink_set_errors(self):
        g = graph_of("abc", {("a", "b"): 1, ("b", "c"): 1})
        with pytest.raises(UnknownNode, match="unknown node index 5"):
            max_flow(g, (0,), 5)
        with pytest.raises(UnknownNode, match="unknown node index -4"):
            max_flow(g, (0,), -4)
        # a source in the class the sink names, though not the sink itself
        with pytest.raises(UnknownNode, match="flow endpoints must differ, got 'a' in the sink's class"):
            max_flow(g, (1, 0), 2, [2, 1, 2])
        # a source is looked up before the sink
        with pytest.raises(UnknownNode, match="unknown node index 7"):
            max_flow(g, (7,), 9)

    def test_labels_are_one_per_node(self):
        g = graph_of("abc", {("a", "b"): 1, ("b", "c"): 1})
        for label in ([0, 1], [0, 1, 2, 3], []):
            with pytest.raises(ValueError, match=f"a flow needs one label per node, got {len(label)} for 3 nodes"):
                max_flow(g, (0,), 2, label)
        assert max_flow(g, (0,), 2, [5, 6, 7]) == max_flow(g, (0,), 2) == (1, bytearray(b"\1\0\0"))

    def test_a_bare_str_is_refused(self):
        # "ab" would otherwise read as the two nodes "a" and "b"; a flow
        # takes node indices, so every name is refused
        g = graph_of("abc", {("a", "b"): 1, ("b", "c"): 1})
        with pytest.raises(TypeError, match="flow nodes are int indices, not a str"):
            max_flow(g, "ab", 2)
        for sink in ("c", "bc", ""):
            with pytest.raises(TypeError, match="flow nodes are int indices, not a str"):
                max_flow(g, (0,), sink)
        with pytest.raises(TypeError, match="flow nodes are int indices, not a bool"):
            max_flow(g, (True,), 2)

    def test_sinks_are_a_set(self):
        # the sinks are the set of nodes that share the sink's label; the
        # earlier collection forms of the sink are refused
        g = graph_of("abc", {("a", "b"): 1, ("b", "c"): 1})
        for sinks, kind in (((2,), "tuple"), ([2], "list"), ({2}, "set"), ({2: 1}, "dict")):
            with pytest.raises(TypeError, match=f"flow nodes are int indices, not a {kind}"):
                max_flow(g, (0,), sinks)
        assert name_flow(g, ("a",), frozenset("c")) == name_flow(g, ("a",), {"c"}) == (1, frozenset("a"))
        # b and c share a label: one class, named by either of them
        assert max_flow(g, (0,), 2, [0, 1, 1]) == max_flow(g, (0,), 1, [0, 1, 1]) == (1, bytearray(b"\1\0\0"))

    def test_sinks_merge_into_one_node(self):
        # a reaches b and c by 1 alone, and by 2 together
        g = graph_of("abct", {("a", "b"): 1, ("a", "c"): 1, ("c", "t"): 3})
        assert name_flow(g, ("a",), {"b"}) == (1, frozenset("act"))
        assert name_flow(g, ("a",), {"c"}) == (1, frozenset("ab"))
        assert name_flow(g, ("a",), {"b", "c"}) == (2, frozenset("a"))
        assert name_flow(g, ("a",), {"b", "t"}) == (2, frozenset("a"))
        assert name_flow(g, ("a",), {"b", "c"}, 1) == (1, None)

    def test_sources_merge_into_one_node(self):
        # b and c each reach t by 1 alone, and by 2 together
        g = graph_of("abct", {("a", "b"): 5, ("b", "t"): 1, ("c", "t"): 1})
        assert name_flow(g, ("b",), {"t"}) == (1, frozenset("ab"))
        assert name_flow(g, ("b", "c"), {"t"}) == (2, frozenset("abc"))

    def test_limit_errors(self):
        g = graph_of("ab", {("a", "b"): 1})
        for limit in (0, -1, True, 1.5):
            with pytest.raises(ValueError, match="a flow limit must be an int of at least 1"):
                max_flow(g, (0,), 1, None, limit)

    def test_two_disjoint_routes_add_up(self):
        g = graph_of(
            "sxyt",
            {("s", "x"): 2, ("x", "t"): 2, ("s", "y"): 3, ("y", "t"): 1},
        )
        assert name_flow(g, ("s",), {"t"})[0] == 3

    def test_a_held_class_costs_no_label_read_per_member(self):
        # s - h0 - h1 - ... - h999, with h0..h999 one class named by h999:
        # the flow labels h0, which ends its only path, so it reads the
        # label at the source, the sink and h0, never at the other members
        names = ["s"] + [f"h{i}" for i in range(1000)]
        g = graph_of(names, {("s", "h0"): 2, **{(f"h{i}", f"h{i + 1}"): 1 for i in range(999)}})

        class Reads(list):
            def __getitem__(self, i):
                read.append(i)
                return list.__getitem__(self, i)

        read = []
        label = Reads([0] + [1000] * 1000)
        assert max_flow(g, (0,), 1000, label) == (2, bytearray([1] + [0] * 1000))
        assert set(read) == {0, 1, 1000}
        assert len(read) <= 5
        read.clear()
        assert max_flow(g, (0,), 1000, label, 1) == (2, None)
        assert set(read) == {0, 1, 1000} and len(read) <= 5


class TestAllPairsConnectivity:
    def test_triangle(self):
        g = graph_of("abc", {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1})
        lam = all_pairs_connectivity(g)
        assert lam == {("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 2}

    def test_tiny_graphs(self):
        assert all_pairs_connectivity(graph_of("a", {})) == {}
        assert all_pairs_connectivity(graph_of("", {})) == {}

    def test_star(self):
        g = graph_of("abch", {("a", "h"): 3, ("b", "h"): 3, ("c", "h"): 2})
        lam = all_pairs_connectivity(g)
        assert lam[("a", "b")] == 3
        assert lam[("a", "c")] == 2
        assert lam[("b", "c")] == 2
        assert lam[("a", "h")] == 3
        assert lam[("c", "h")] == 2


@st.composite
def small_graphs(draw, max_nodes=6):
    # sparse graphs as often as dense ones: a wrong flow-tree parent only
    # shows when some pair is not directly joined
    n = draw(st.integers(2, max_nodes))
    names = [f"n{i}" for i in range(n)]
    g = CapacitatedMultigraph(names)
    zeros = draw(st.sampled_from([0, 5]))
    for u, v in combinations(names, 2):
        c = draw(st.integers(-zeros, 5))
        if c > 0:
            g.set_capacity(u, v, c)
    return g


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_flow_tree_agrees_with_direct_flows(g):
    lam = all_pairs_connectivity(g)
    for u, v in combinations(g.nodes, 2):
        assert lam[(u, v)] == name_flow(g, (u,), {v})[0]


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_connectivity_satisfies_the_max_min_triangle_inequality(g):
    lam = all_pairs_connectivity(g)

    def get(x, y):
        return lam[(x, y) if x <= y else (y, x)]

    nodes = g.nodes
    for x, y in combinations(nodes, 2):
        for z in nodes:
            if z in (x, y):
                continue
            assert get(x, y) >= min(get(x, z), get(z, y))


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_flow_is_bounded_by_every_cut(g):
    nodes = list(g.nodes)
    source = nodes[0]
    rest = nodes[1:]
    for t in rest:
        value = name_flow(g, (source,), {t})[0]
        best = None
        for mask in range(2 ** len(rest)):
            side = {source} | {rest[i] for i in range(len(rest)) if mask >> i & 1}
            if t in side:
                continue
            cut = sum(
                c
                for (u, v), c in g.positive_pairs()
                if (u in side) != (v in side)
            )
            best = cut if best is None else min(best, cut)
        assert value == best


def cut_value(g, side):
    return sum(c for (u, v), c in g.positive_pairs() if (u in side) != (v in side))


@st.composite
def source_sets(draw):
    """A graph of at most 7 nodes, a nonempty source tuple and a nonempty
    sink set apart."""
    g = draw(small_graphs(max_nodes=7))
    ends = draw(st.permutations(g.nodes))
    cut = draw(st.integers(1, len(ends) - 1))
    sources = ends[:cut]
    sinks = ends[cut:][: draw(st.integers(1, len(ends) - cut))]
    return g, tuple(sources), set(sinks)


@settings(max_examples=80, deadline=None)
@given(source_sets())
def test_multi_source_flow_is_the_least_cut_around_the_sources(problem):
    g, sources, sinks = problem
    capacities = dict(g.positive_pairs())
    rest = [v for v in g.nodes if v not in sources and v not in sinks]
    sides = [set(sources) | {rest[i] for i in range(len(rest)) if mask >> i & 1} for mask in range(2 ** len(rest))]
    best = min(cut_value(g, candidate) for candidate in sides)
    value, side = name_flow(g, sources, sinks)
    assert value == best
    assert set(sources) <= side and side.isdisjoint(sinks)
    assert cut_value(g, side) == value
    # the last path search misses every sink and labels the whole residual
    # closure of the sources, which lies inside every min-cut side around them
    assert side == set.intersection(*(c for c in sides if cut_value(g, c) == best))
    assert dict(g.positive_pairs()) == capacities


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_a_limited_flow_answers_whether_it_reaches_the_limit(g):
    capacities = dict(g.positive_pairs())
    for s, t in combinations(g.nodes, 2):
        exact = name_flow(g, (s,), {t})
        for limit in range(1, exact[0] + 2):
            value, side = name_flow(g, (s,), {t}, limit)
            assert (value >= limit) == (exact[0] >= limit)
            if value < limit:
                assert (value, side) == exact
            else:
                assert side is None
    assert dict(g.positive_pairs()) == capacities


@st.composite
def kernel_cases(draw, max_nodes=16):
    """A graph of 2-16 nodes with dead arcs among its live ones, and 1-3
    sources and 1-3 sinks apart.

    Each step sets a pair; or sets it and then zeroes it, so its two arcs stay
    at capacity 0; or splits at a node and keeps the split or undoes it with
    `split(..., -amount)`, which leaves two dead arcs where the split made
    its pair.
    """
    n = draw(st.integers(2, max_nodes))
    names = [f"n{i}" for i in range(n)]
    g = CapacitatedMultigraph(names)
    node = st.integers(0, n - 1)
    kinds = st.sampled_from(("set", "dead", "split", "undone"))
    steps = st.lists(st.tuples(kinds, node, node, node, st.integers(1, 5)), max_size=4 * n)
    for kind, i, j, k, c in draw(steps):
        s, u, w = names[i], names[j], names[k]
        if kind in ("set", "dead") and s != u:
            g.set_capacity(s, u, c)
            if kind == "dead":
                g.set_capacity(s, u, 0)
        elif len({s, u, w}) == 3 and g.capacity(s, u) and g.capacity(s, w):
            amount = min(c, g.capacity(s, u), g.capacity(s, w))
            g.split(s, u, w, amount)
            if kind == "undone":
                g.split(s, u, w, -amount)
    ends = draw(st.lists(st.sampled_from(names), min_size=2, max_size=min(6, n), unique=True))
    cut = draw(st.integers(max(1, len(ends) - 3), min(3, len(ends) - 1)))
    return g, tuple(ends[:cut]), frozenset(ends[cut:])


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_augment_finds_the_reference_paths(case):
    """`_augment` stops its scan at the arc that labels the first node of
    the sink class and takes the bottleneck on the walk back; the reference
    scans the whole node and takes a separate `min`. Both find the same
    paths in the same order, so they return the same (value, side) uncapped
    and at every cap up to the exact value plus one, overshoot included, and
    neither touches the graph. The side is one byte per node, set exactly on
    the reference's residual closure, the nodes its last search labels."""
    g, sources, sinks = case
    caps = list(g._cap)
    sources, sinks = ids(g, sources), ids(g, sorted(sinks))
    label = list(range(len(g.nodes)))
    for y in sinks:
        label[y] = sinks[0]
    sink = sinks[-1]
    exact = reference_augment(g, sources, sink, label)
    value, side = maxflow._augment(g, sources, sink, label)
    assert (value, side) == exact
    assert type(side) is bytearray and len(side) == len(g.nodes)
    for limit in range(1, exact[0] + 2):
        assert maxflow._augment(g, sources, sink, label, limit) == reference_augment(g, sources, sink, label, limit)
    assert g._cap == caps
