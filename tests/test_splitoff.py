"""Node elimination by connectivity-preserving splits."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesynth import Realization, SolverInternalError, UnknownNode, build_instance
from treesynth.maxflow import CapacitatedMultigraph, all_pairs_connectivity, max_flow
from treesynth.splitoff import (
    SplitState,
    _dominant_demands,
    admissible_amount,
    connectivity_snapshot,
    expand_capacity_graph,
    extract_realization,
    realize_capacity,
    split_node,
)
from treesynth.model import node_pair

from helpers import star_instance, uniform_star


def star_graph(caps):
    """Capacitated star around 'h' with the given leaf capacities."""
    g = CapacitatedMultigraph(["h"] + sorted(caps))
    for leaf, c in caps.items():
        g.set_capacity("h", leaf, c)
    return g


class TestDominantDemands:
    def test_empty(self):
        assert _dominant_demands({}) == []

    def test_single_pair(self):
        assert _dominant_demands({("a", "b"): 3}) == [("a", "b", 3)]

    def test_zero_demands_are_dropped(self):
        assert _dominant_demands({("a", "b"): 0}) == []

    def test_keeps_a_maximum_spanning_tree(self):
        checks = _dominant_demands({("a", "b"): 3, ("a", "c"): 5, ("b", "c"): 4})
        assert {(node_pair(x, y), w) for x, y, w in checks} == {
            (("a", "c"), 5),
            (("b", "c"), 4),
        }

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_tree_bottlenecks_dominate_every_demand(self, data):
        n = data.draw(st.integers(2, 7))
        names = [f"n{i}" for i in range(n)]
        demands = {}
        for x, y in combinations(names, 2):
            d = data.draw(st.integers(0, 6))
            if d:
                demands[(x, y)] = d
        checks = _dominant_demands(demands)
        # kept pairs form a forest and never invent new demand mass
        assert len(checks) <= max(0, len({v for p in demands for v in p}) - 1)
        for x, y, w in checks:
            assert demands[node_pair(x, y)] == w
        # bottleneck over the kept forest covers each dropped demand exactly
        adj = {}
        for x, y, w in checks:
            adj.setdefault(x, []).append((y, w))
            adj.setdefault(y, []).append((x, w))

        def bottleneck(src, dst):
            best = {src: None}
            stack = [src]
            while stack:
                node = stack.pop()
                for nxt, w in adj.get(node, ()):
                    cand = w if best[node] is None else min(best[node], w)
                    if nxt not in best or (best[nxt] or 0) < cand:
                        best[nxt] = cand
                        stack.append(nxt)
            return best.get(dst)

        for (x, y), d in demands.items():
            b = bottleneck(x, y)
            assert b is not None and b >= d


class TestExpandCapacityGraph:
    def test_copies_positive_capacities(self):
        instance = star_instance({("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 2})
        graph = expand_capacity_graph(instance, instance.base_capacity())
        assert graph.capacity("hub", "a") == 3
        assert graph.capacity("hub", "c") == 2
        assert set(graph.nodes) == {"a", "b", "c", "hub"}

    def test_zero_capacity_edges_are_absent(self):
        # c carries no requirement, so its spoke gets capacity 0
        instance = build_instance(
            ["a", "b", "c"],
            ["a", "b", "c", "hub"],
            [("hub", t, "1/2") for t in ("a", "b", "c")],
            [("a", "b", 2)],
        )
        base = instance.base_capacity()
        graph = expand_capacity_graph(instance, base)
        assert base[("c", "hub")] == 0
        assert "c" not in graph.neighbors("hub")


class TestConnectivitySnapshot:
    def test_paths_through_the_excluded_node_still_count(self):
        g = CapacitatedMultigraph("asb", {("a", "s"): 2, ("s", "b"): 2})
        assert connectivity_snapshot(g, "s", all_pairs_connectivity(g)) == {("a", "b"): 2}

    def test_zero_degree_nodes_are_dropped(self):
        g = CapacitatedMultigraph("asbd", {("a", "s"): 2, ("s", "b"): 2})
        snap = connectivity_snapshot(g, "s", all_pairs_connectivity(g))
        assert set(snap) == {("a", "b")}

    def test_too_few_nodes_left(self):
        g = CapacitatedMultigraph("as", {("a", "s"): 2})
        assert connectivity_snapshot(g, "s", all_pairs_connectivity(g)) == {}

    def test_unknown_exclude(self):
        with pytest.raises(UnknownNode, match="unknown node 'zz'"):
            connectivity_snapshot(CapacitatedMultigraph("ab"), "zz", {})

    def test_restricts_the_given_map_without_flows(self):
        # the map is read, not recomputed: its values pass through, and pairs
        # touching the active node or a node without degree are dropped
        g = CapacitatedMultigraph("abcs", {("a", "s"): 2, ("b", "s"): 2})
        given_map = {("a", "b"): 7, ("a", "c"): 5, ("a", "s"): 2}
        assert connectivity_snapshot(g, "s", given_map) == {("a", "b"): 7}


class TestSplitState:
    def test_default_snapshot(self):
        g = star_graph({"a": 2, "b": 2, "c": 2})
        state = SplitState(g, "h", all_pairs_connectivity(g))
        assert state.demands == {("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 2}
        assert state.events == []
        with pytest.raises(UnknownNode, match="unknown node 'zz'"):
            SplitState(g, "zz", all_pairs_connectivity(g))


class TestAdmissibleAmount:
    def test_uniform_star_allows_one_unit(self):
        g = star_graph({"a": 2, "b": 2, "c": 2})
        state = SplitState(g, "h", all_pairs_connectivity(g))
        assert admissible_amount(state, "a", "b") == 1

    def test_two_leaf_star_splits_completely(self):
        g = star_graph({"a": 3, "b": 3})
        state = SplitState(g, "h", all_pairs_connectivity(g))
        assert admissible_amount(state, "a", "b") == 3

    def test_loop_pair_blocked_by_through_demand(self):
        g = star_graph({"a": 2, "b": 2})
        state = SplitState(g, "h", all_pairs_connectivity(g))
        assert admissible_amount(state, "a", "a") == 0

    def test_loop_pair_on_sole_neighbor_burns_half(self):
        g = star_graph({"a": 4})
        state = SplitState(g, "h", all_pairs_connectivity(g))
        assert admissible_amount(state, "a", "a") == 2

    def test_probing_leaves_the_graph_unchanged(self):
        g = star_graph({"a": 2, "b": 2, "c": 2})
        state = SplitState(g, "h", all_pairs_connectivity(g))
        admissible_amount(state, "a", "b")
        admissible_amount(state, "a", "a")
        untouched = star_graph({"a": 2, "b": 2, "c": 2})
        assert dict(g.positive_pairs()) == dict(untouched.positive_pairs())

    def test_rejects_non_neighbors(self):
        g = star_graph({"a": 2, "b": 2})
        g2 = CapacitatedMultigraph(list(g.nodes) + ["d"])
        for (u, v), c in g.positive_pairs():
            g2.set_capacity(u, v, c)
        state = SplitState(g2, "h", all_pairs_connectivity(g2))
        with pytest.raises(UnknownNode, match="'d' does not neighbor 'h'"):
            admissible_amount(state, "a", "d")
        with pytest.raises(UnknownNode, match="is the active node"):
            admissible_amount(state, "h", "a")

    def test_partial_amount_on_skewed_star(self):
        # splitting a-b beyond 2 units would strand a from c
        g = star_graph({"a": 3, "b": 3, "c": 2})
        state = SplitState(g, "h", all_pairs_connectivity(g))
        assert admissible_amount(state, "a", "b") == 2


class TestSplitNode:
    def test_uniform_star_becomes_a_triangle(self):
        g = star_graph({"a": 2, "b": 2, "c": 2})
        state = SplitState(g, "h", all_pairs_connectivity(g))
        split_node(state)
        assert state.events == [("a", "b", 1), ("a", "c", 1), ("b", "c", 1)]
        assert dict(g.positive_pairs()) == {
            ("a", "b"): 1,
            ("a", "c"): 1,
            ("b", "c"): 1,
        }

    def test_skewed_star_keeps_the_heavy_pair(self):
        g = star_graph({"a": 3, "b": 3, "c": 2})
        state = SplitState(g, "h", all_pairs_connectivity(g))
        split_node(state)
        assert state.events == [("a", "b", 2), ("a", "c", 1), ("b", "c", 1)]
        assert dict(g.positive_pairs()) == {
            ("a", "b"): 2,
            ("a", "c"): 1,
            ("b", "c"): 1,
        }

    def test_connectivities_survive(self):
        g = star_graph({"a": 4, "b": 4, "c": 2, "d": 2})
        state = SplitState(g, "h", all_pairs_connectivity(g))
        demands = dict(state.demands)
        split_node(state)
        assert g.degree("h") == 0
        for (x, y), d in demands.items():
            assert max_flow(g, x, y) >= d

    def test_unit_legs_are_cut_edges_and_block_splitting(self):
        # every leg is a bridge, so any split strands the remaining legs;
        # this is the configuration the capacity >= 2 precondition excludes
        g = star_graph({"a": 1, "b": 1, "c": 1, "d": 1})
        with pytest.raises(SolverInternalError, match="no admissible split remains at 'h'"):
            split_node(SplitState(g, "h", all_pairs_connectivity(g)))


class TestExtractRealization:
    def test_reads_terminal_pairs_and_skips_removed_pairs(self):
        g = CapacitatedMultigraph(["a", "b", "h"])
        g.set_capacity("a", "b", 2)
        g.set_capacity("a", "h", 5)
        g.set_capacity("a", "h", 0)
        realization = extract_realization(g, ["a", "b"])
        assert realization == Realization({("a", "b"): 2})

    def test_rejects_leftover_inner_degree(self):
        g = star_graph({"a": 2, "b": 2})
        with pytest.raises(SolverInternalError, match="'h' still has degree 4"):
            extract_realization(g, ["a", "b"])

    def test_rejects_missing_terminal(self):
        g = CapacitatedMultigraph(["a"])
        with pytest.raises(UnknownNode):
            extract_realization(g, ["a", "zz"])


class TestRealizeCapacity:
    def test_uniform_star(self):
        instance = uniform_star(3, 2)
        realization, trace = realize_capacity(instance, instance.base_capacity())
        assert realization == Realization(
            {("t0", "t1"): 1, ("t0", "t2"): 1, ("t1", "t2"): 1}
        )
        assert trace == (
            ("hub", "t0", "t1", 1),
            ("hub", "t0", "t2", 1),
            ("hub", "t1", "t2", 1),
        )

    def test_realization_cost_matches_capacity_cost(self):
        instance = star_instance({("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 2})
        realization, _ = realize_capacity(instance, instance.base_capacity())
        assert instance.realization_cost(realization) == 4

    def test_no_inner_nodes_passes_through(self):
        inst = build_instance(["a", "b"], ["a", "b"], [("a", "b", 1)], [("a", "b", 2)])
        realization, trace = realize_capacity(inst, inst.base_capacity())
        assert realization == Realization({("a", "b"): 2})
        assert trace == ()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_split_preserves_snapshot_connectivities(data):
    # legs of capacity >= 2 leave no cut edge at the center, so full
    # elimination is guaranteed; an even total keeps the degrees splittable
    k = data.draw(st.integers(2, 5))
    caps = {}
    for i in range(k):
        caps[f"x{i}"] = data.draw(st.integers(2, 5))
    if sum(caps.values()) % 2:
        caps["x0"] += 1
    g = star_graph(caps)
    state = SplitState(g, "h", all_pairs_connectivity(g))
    demands = dict(state.demands)
    split_node(state)
    assert g.degree("h") == 0
    for (x, y), d in demands.items():
        assert max_flow(g, x, y) >= d
