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

from helpers import add_capacity, reference_augment, set_flow

# the nodes of the small graphs below, each the index it names
A, B, C, D = range(4)


class TestCapacitatedMultigraph:
    def test_set_and_get(self):
        g = CapacitatedMultigraph(2)
        assert g.capacity(A, B) == 0
        g.set_capacity(A, B, 3)
        assert g.capacity(A, B) == 3
        assert g.capacity(B, A) == 3
        add_capacity(g, B, A, -1)
        assert g.capacity(A, B) == 2

    def test_zero_capacity_removes_the_pair(self):
        g = CapacitatedMultigraph(2, {(A, B): 2})
        g.set_capacity(A, B, 0)
        assert g.neighbors(A) == ()
        assert dict(g.positive_pairs()) == {}

    def test_rejects_bad_capacities(self):
        g = CapacitatedMultigraph(2)
        with pytest.raises(ValueError):
            g.set_capacity(A, B, -1)
        with pytest.raises(ValueError):
            g.set_capacity(A, B, True)
        with pytest.raises(ValueError):
            g.set_capacity(A, B, 1.5)
        with pytest.raises(ValueError):
            add_capacity(g, A, B, -1)

    def test_rejects_unknown_nodes(self):
        g = CapacitatedMultigraph(2)
        with pytest.raises(UnknownNode, match="^unknown node index 2$"):
            g.set_capacity(A, 2, 1)
        with pytest.raises(UnknownNode, match="^unknown node index -1$"):
            g.neighbors(-1)
        with pytest.raises(UnknownNode, match="^unknown node index 2$"):
            CapacitatedMultigraph(2, {(A, 2): 1})
        # every method takes indices, so a name or a bool is refused
        for call in (
            lambda: g.set_capacity("a", B, 1),
            lambda: g.capacity(A, "b"),
            lambda: g.degree("a"),
            lambda: g.neighbors("a"),
        ):
            with pytest.raises(TypeError, match="^nodes are int indices, not a str$"):
                call()
        with pytest.raises(TypeError, match="^nodes are int indices, not a bool$"):
            g.capacity(True, A)

    def test_loops_carry_no_degree(self):
        g = CapacitatedMultigraph(2, {(A, B): 1})
        with pytest.raises(UnknownNode, match="a loop at node 0 cannot carry capacity"):
            g.set_capacity(A, A, 4)
        assert g.degree(A) == 1
        assert g.neighbors(A) == (B,)
        assert dict(g.positive_pairs()) == {(A, B): 1}
        with pytest.raises(UnknownNode, match="a loop at node 0 cannot carry capacity"):
            CapacitatedMultigraph(2, {(A, A): 4, (A, B): 1})

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
        node = {"a": A, "zz": 7, "yy": 9}
        g = CapacitatedMultigraph(2, {(A, B): 2})
        degrees = list(g._degree)
        with pytest.raises(UnknownNode, match=f"^unknown node index {node[missing]}$"):
            g.set_capacity(node[u], node[v], value)
        assert g._degree == degrees
        assert graph_state(g) == ({(A, B): 2}, [2, 2])

    def test_nodes_and_contains(self):
        g = CapacitatedMultigraph(2)
        assert g.nodes == range(2)
        assert len(g.nodes) == 2 and g.nodes[B] == B
        assert A in g.nodes
        assert 2 not in g.nodes

    def test_degree_follows_set_and_add(self):
        g = CapacitatedMultigraph(3, {(A, B): 2})
        add_capacity(g, A, C, 3)
        assert [g.degree(v) for v in (A, B, C)] == [5, 2, 3]
        g.set_capacity(B, A, 0)
        assert [g.degree(v) for v in (A, B, C)] == [3, 0, 3]
        add_capacity(g, A, B, 4)
        assert [g.degree(v) for v in (A, B, C)] == [7, 4, 3]
        with pytest.raises(ValueError):
            add_capacity(g, A, C, -4)
        assert [g.degree(v) for v in (A, B, C)] == [7, 4, 3]


def built_entry_by_entry(n, entries):
    g = CapacitatedMultigraph(n)
    for (u, v), c in entries.items():
        g.set_capacity(u, v, c)
    return g


def build_outcome(build, n, entries):
    """The exception a build raises, type and message, or the arc arrays and
    degrees of the graph it returns."""
    try:
        g = build(n, entries)
    except Exception as exc:
        return type(exc), str(exc)
    return g._head, g._to, g._cap, g._arc, g._degree


class TestOnePassBuild:
    """The constructor is the same set_capacity calls, in entry order: its
    outcome, graph or error, is theirs."""

    @pytest.mark.parametrize(
        "entries",
        [
            {(A, B): 2, (A, 7): 1},
            {(7, A): True},
            {(A, B): 2, (C, C): 1},
            {(A, B): True},
            {(A, B): 1.0},
            {(B, C): 3, (A, B): -1},
            {(A, B): 0, (B, C): 2},
            {(A, B): 2, (B, A): 3},
            {(A, B): 2, (B, A): 0, (A, C): 1},
            {(C, A): 4, (B, C): 1, (A, C): 4},
        ],
    )
    def test_matches_set_capacity_calls(self, entries):
        outcome = build_outcome(CapacitatedMultigraph, 3, entries)
        assert outcome == build_outcome(built_entry_by_entry, 3, entries)

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from((A, B, C, D, 7, "a")), st.sampled_from((A, B, C, D, 7, "a"))),
            st.one_of(st.integers(-2, 4), st.booleans(), st.sampled_from((1.0, "1", None))),
            max_size=8,
        )
    )
    def test_random_entries_match_set_capacity_calls(self, entries):
        outcome = build_outcome(CapacitatedMultigraph, 4, entries)
        assert outcome == build_outcome(built_entry_by_entry, 4, entries)


def graph_state(g):
    return dict(g.positive_pairs()), [g.degree(v) for v in g.nodes]


# the nodes of the split tests, and an index out of their range
SPLIT = {"s": 0, "u": 1, "w": 2, "x": 3, "y": 4, "zz": 9}
S, U, W, X, Y = range(5)


class TestSplit:
    def test_moves_capacity_and_changes_only_the_active_degree(self):
        g = CapacitatedMultigraph(4, {(S, U): 3, (S, W): 2, (S, X): 1})
        g.split(S, U, W, 2)
        assert dict(g.positive_pairs()) == {(S, U): 1, (S, X): 1, (U, W): 2}
        assert [g.degree(v) for v in (S, U, W, X)] == [2, 3, 2, 1]
        assert g.neighbors(W) == (U,)
        g.split(S, U, W, -2)
        assert dict(g.positive_pairs()) == {(S, U): 3, (S, W): 2, (S, X): 1}
        assert [g.degree(v) for v in (S, U, W, X)] == [6, 3, 2, 1]
        assert g.neighbors(U) == (S,)

    def test_adds_to_an_existing_pair(self):
        g = CapacitatedMultigraph(3, {(S, U): 2, (S, W): 2, (U, W): 1})
        g.split(S, W, U, 1)
        assert dict(g.positive_pairs()) == {(S, U): 1, (S, W): 1, (U, W): 2}
        assert [g.degree(v) for v in (S, U, W)] == [2, 3, 3]
        g.split(S, U, W, 0)
        assert dict(g.positive_pairs()) == {(S, U): 1, (S, W): 1, (U, W): 2}

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
        g = CapacitatedMultigraph(5, {(S, U): 4, (S, W): 2, (S, X): 2, (U, W): 1, (X, Y): 1})
        before = graph_state(g)
        with pytest.raises(error):
            g.split(SPLIT[s], SPLIT[u], SPLIT[w], amount)
        assert graph_state(g) == before
        # a later legal split still sees the graph it would have
        g.split(S, U, X, 2)
        assert dict(g.positive_pairs())[(U, X)] == 2


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(combinations(range(4), 2))),
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
    # a star at A, so splits there find their arcs; other pairs start absent
    g = CapacitatedMultigraph(4, {(A, B): 2, (A, C): 2, (A, D): 2})
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




# the nodes of the flow tests that name a sink t or a hub h
T = H = 3


class TestMaxFlow:
    def test_triangle_doubles_the_direct_edge(self):
        g = CapacitatedMultigraph(3, {(A, B): 1, (B, C): 1, (A, C): 1})
        assert set_flow(g, (A,), {B})[0] == 2

    def test_star_bottleneck(self):
        g = CapacitatedMultigraph(4, {(A, H): 3, (B, H): 3, (C, H): 2})
        assert set_flow(g, (A,), {B})[0] == 3
        assert set_flow(g, (A,), {C})[0] == 2

    def test_path_bottleneck(self):
        g = CapacitatedMultigraph(3, {(A, B): 5, (B, C): 2})
        assert set_flow(g, (A,), {C})[0] == 2

    def test_disconnected_pair(self):
        g = CapacitatedMultigraph(4, {(A, B): 5, (C, D): 5})
        assert set_flow(g, (A,), {C})[0] == 0

    def test_removed_pairs_carry_no_flow(self):
        g = CapacitatedMultigraph(3, {(A, B): 9, (A, C): 1, (B, C): 1})
        g.set_capacity(A, B, 0)
        assert set_flow(g, (A,), {B})[0] == set_flow(g, (B,), {A})[0] == 1
        g.set_capacity(A, B, 2)
        assert set_flow(g, (A,), {B})[0] == 3

    def test_endpoint_errors(self):
        g = CapacitatedMultigraph(2, {(A, B): 1})
        with pytest.raises(UnknownNode, match="flow endpoints must differ, got node 0 in the sink's class"):
            max_flow(g, (0,), 0)
        with pytest.raises(UnknownNode, match="unknown node index 2"):
            max_flow(g, (0,), 2)

    def test_source_set_errors(self):
        g = CapacitatedMultigraph(3, {(A, B): 1, (B, C): 1})
        with pytest.raises(UnknownNode, match="unknown node index 3"):
            max_flow(g, (0, 3), 2)
        with pytest.raises(UnknownNode, match="unknown node index -1"):
            max_flow(g, (0, -1), 2)
        with pytest.raises(UnknownNode, match="unknown node index 3"):
            max_flow(g, (0, 1), 3)
        with pytest.raises(UnknownNode, match="at least one source"):
            max_flow(g, (), 2)
        with pytest.raises(UnknownNode, match="flow endpoints must differ, got node 2 in the sink's class"):
            max_flow(g, (0, 2), 2)

    def test_sink_set_errors(self):
        g = CapacitatedMultigraph(3, {(A, B): 1, (B, C): 1})
        with pytest.raises(UnknownNode, match="unknown node index 5"):
            max_flow(g, (0,), 5)
        with pytest.raises(UnknownNode, match="unknown node index -4"):
            max_flow(g, (0,), -4)
        # a source in the class the sink names, though not the sink itself
        with pytest.raises(UnknownNode, match="flow endpoints must differ, got node 0 in the sink's class"):
            max_flow(g, (1, 0), 2, [2, 1, 2])
        # a source is looked up before the sink
        with pytest.raises(UnknownNode, match="unknown node index 7"):
            max_flow(g, (7,), 9)

    def test_labels_are_one_per_node(self):
        g = CapacitatedMultigraph(3, {(A, B): 1, (B, C): 1})
        for label in ([0, 1], [0, 1, 2, 3], []):
            with pytest.raises(ValueError, match=f"a flow needs one label per node, got {len(label)} for 3 nodes"):
                max_flow(g, (0,), 2, label)
        assert max_flow(g, (0,), 2, [5, 6, 7]) == max_flow(g, (0,), 2) == (1, bytearray(b"\1\0\0"))

    def test_a_bare_str_is_refused(self):
        # "ab" would otherwise read as the two nodes "a" and "b"; a flow
        # takes node indices, so every name is refused
        g = CapacitatedMultigraph(3, {(A, B): 1, (B, C): 1})
        with pytest.raises(TypeError, match="nodes are int indices, not a str"):
            max_flow(g, "ab", 2)
        for sink in ("c", "bc", ""):
            with pytest.raises(TypeError, match="nodes are int indices, not a str"):
                max_flow(g, (0,), sink)
        with pytest.raises(TypeError, match="nodes are int indices, not a bool"):
            max_flow(g, (True,), 2)

    def test_sinks_are_a_set(self):
        # the sinks are the set of nodes that share the sink's label; the
        # earlier collection forms of the sink are refused
        g = CapacitatedMultigraph(3, {(A, B): 1, (B, C): 1})
        for sinks, kind in (((2,), "tuple"), ([2], "list"), ({2}, "set"), ({2: 1}, "dict")):
            with pytest.raises(TypeError, match=f"nodes are int indices, not a {kind}"):
                max_flow(g, (0,), sinks)
        assert set_flow(g, (A,), frozenset({C})) == set_flow(g, (A,), {C}) == (1, frozenset({A}))
        # b and c share a label: one class, named by either of them
        assert max_flow(g, (0,), 2, [0, 1, 1]) == max_flow(g, (0,), 1, [0, 1, 1]) == (1, bytearray(b"\1\0\0"))

    def test_sinks_merge_into_one_node(self):
        # a reaches b and c by 1 alone, and by 2 together
        g = CapacitatedMultigraph(4, {(A, B): 1, (A, C): 1, (C, T): 3})
        assert set_flow(g, (A,), {B}) == (1, frozenset({A, C, T}))
        assert set_flow(g, (A,), {C}) == (1, frozenset({A, B}))
        assert set_flow(g, (A,), {B, C}) == (2, frozenset({A}))
        assert set_flow(g, (A,), {B, T}) == (2, frozenset({A}))
        assert set_flow(g, (A,), {B, C}, 1) == (1, None)

    def test_sources_merge_into_one_node(self):
        # b and c each reach t by 1 alone, and by 2 together
        g = CapacitatedMultigraph(4, {(A, B): 5, (B, T): 1, (C, T): 1})
        assert set_flow(g, (B,), {T}) == (1, frozenset({A, B}))
        assert set_flow(g, (B, C), {T}) == (2, frozenset({A, B, C}))

    def test_limit_errors(self):
        g = CapacitatedMultigraph(2, {(A, B): 1})
        for limit in (0, -1, True, 1.5):
            with pytest.raises(ValueError, match="a flow limit must be an int of at least 1"):
                max_flow(g, (0,), 1, None, limit)

    def test_two_disjoint_routes_add_up(self):
        s, x, y, t = range(4)
        g = CapacitatedMultigraph(4, {(s, x): 2, (x, t): 2, (s, y): 3, (y, t): 1})
        assert set_flow(g, (s,), {t})[0] == 3

    def test_a_held_class_costs_no_label_read_per_member(self):
        # s - h0 - h1 - ... - h999, node 0 and h_i node i + 1, with h0..h999
        # one class named by h999: the flow labels h0, which ends its only
        # path, so it reads the label at the source, the sink and h0, never
        # at the other members
        g = CapacitatedMultigraph(1001, {(0, 1): 2, **{(i, i + 1): 1 for i in range(1, 1000)}})

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
        g = CapacitatedMultigraph(3, {(A, B): 1, (B, C): 1, (A, C): 1})
        lam = all_pairs_connectivity(g)
        assert lam == {(A, B): 2, (A, C): 2, (B, C): 2}

    def test_tiny_graphs(self):
        assert all_pairs_connectivity(CapacitatedMultigraph(1)) == {}
        assert all_pairs_connectivity(CapacitatedMultigraph(0)) == {}

    def test_star(self):
        g = CapacitatedMultigraph(4, {(A, H): 3, (B, H): 3, (C, H): 2})
        lam = all_pairs_connectivity(g)
        assert lam[(A, B)] == 3
        assert lam[(A, C)] == 2
        assert lam[(B, C)] == 2
        assert lam[(A, H)] == 3
        assert lam[(C, H)] == 2


@st.composite
def small_graphs(draw, max_nodes=6):
    # sparse graphs as often as dense ones: a wrong flow-tree parent only
    # shows when some pair is not directly joined
    n = draw(st.integers(2, max_nodes))
    g = CapacitatedMultigraph(n)
    zeros = draw(st.sampled_from([0, 5]))
    for u, v in combinations(range(n), 2):
        c = draw(st.integers(-zeros, 5))
        if c > 0:
            g.set_capacity(u, v, c)
    return g


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_flow_tree_agrees_with_direct_flows(g):
    lam = all_pairs_connectivity(g)
    for u, v in combinations(g.nodes, 2):
        assert lam[(u, v)] == set_flow(g, (u,), {v})[0]


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
        value = set_flow(g, (source,), {t})[0]
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
    ends = draw(st.permutations(list(g.nodes)))
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
    value, side = set_flow(g, sources, sinks)
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
        exact = set_flow(g, (s,), {t})
        for limit in range(1, exact[0] + 2):
            value, side = set_flow(g, (s,), {t}, limit)
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
    g = CapacitatedMultigraph(n)
    node = st.integers(0, n - 1)
    kinds = st.sampled_from(("set", "dead", "split", "undone"))
    steps = st.lists(st.tuples(kinds, node, node, node, st.integers(1, 5)), max_size=4 * n)
    for kind, s, u, w, c in draw(steps):
        if kind in ("set", "dead") and s != u:
            g.set_capacity(s, u, c)
            if kind == "dead":
                g.set_capacity(s, u, 0)
        elif len({s, u, w}) == 3 and g.capacity(s, u) and g.capacity(s, w):
            amount = min(c, g.capacity(s, u), g.capacity(s, w))
            g.split(s, u, w, amount)
            if kind == "undone":
                g.split(s, u, w, -amount)
    ends = draw(st.lists(st.sampled_from(range(n)), min_size=2, max_size=min(6, n), unique=True))
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
    sinks = sorted(sinks)
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
