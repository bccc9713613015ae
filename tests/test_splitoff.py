"""Node elimination by connectivity-preserving splits."""

import json
import os
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesynth import (
    Realization,
    SolverInternalError,
    UnknownNode,
    build_instance,
    generate_document,
    maxflow,
    parse_instance,
    solve,
    splitoff,
)
from treesynth.maxflow import CapacitatedMultigraph, all_pairs_connectivity, max_flow
from treesynth.splitoff import (
    SplitState,
    admissible_amount,
    connectivity_snapshot,
    extract_realization,
    realize_capacity,
    split_node,
)
from treesynth.model import node_pair

from helpers import (
    add_capacity,
    LENGTH_POOL,
    forest_bottleneck,
    ids,
    name_flow,
    named_checks,
    random_instance,
    reference_snapshot,
    solvable_instances,
    star_instance,
    tree_joins,
    tree_path,
    uniform_star,
)


SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def star_graph(caps):
    """Capacitated star around 'h' with the given leaf capacities."""
    g = CapacitatedMultigraph(["h"] + sorted(caps))
    for leaf, c in caps.items():
        g.set_capacity("h", leaf, c)
    return g


class TestExpandCapacityGraph:
    """The graph split-off starts from: the tree nodes with their capacities."""

    def test_copies_positive_capacities(self):
        instance = star_instance({("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 2})
        graph = CapacitatedMultigraph(instance.tree.nodes, instance.base_capacity())
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
        graph = CapacitatedMultigraph(instance.tree.nodes, base)
        assert base[("c", "hub")] == 0
        assert "c" not in graph.neighbors("hub")


def normalized(graph, checks):
    return {(node_pair(x, y), w) for x, y, w in named_checks(graph, checks)}


class TestDominantDemands:
    """The snapshot's checks: a maximum spanning forest of the demands."""

    def test_empty(self):
        g = CapacitatedMultigraph("ab")
        assert connectivity_snapshot(g, "a", []) == []

    def test_single_pair(self):
        g = CapacitatedMultigraph("abs", {("a", "b"): 3})
        assert normalized(g, connectivity_snapshot(g, "s", tree_joins(g))) == {(("a", "b"), 3)}

    def test_zero_demands_are_dropped(self):
        # a and b lie in different components of the tree: lam(a, b) = 0
        g = CapacitatedMultigraph("abcs", {("a", "s"): 2, ("b", "c"): 3})
        assert normalized(g, connectivity_snapshot(g, "s", tree_joins(g))) == {(("b", "c"), 3)}

    def test_keeps_a_maximum_spanning_tree(self):
        # lam(b, c) = 4 and lam(a, b) = lam(a, c) = 3: the heavy pair stays
        g = CapacitatedMultigraph("abcs", {("a", "s"): 3, ("b", "s"): 5, ("c", "s"): 4})
        checks = normalized(g, connectivity_snapshot(g, "s", tree_joins(g)))
        assert (("b", "c"), 4) in checks
        assert len(checks) == 2 and {w for _, w in checks} == {3, 4}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_tree_bottlenecks_dominate_every_demand(self, data):
        # random capacitated tree; zero edges split it into components
        n = data.draw(st.integers(2, 9))
        names = [f"n{i}" for i in range(n)]
        caps = {}
        for i in range(1, n):
            caps[(names[data.draw(st.integers(0, i - 1))], names[i])] = data.draw(st.integers(0, 6))
        tree = CapacitatedMultigraph(names, caps)
        lam = all_pairs_connectivity(tree)
        active = data.draw(st.sampled_from(names))
        # nodes already split off keep no degree in the current graph
        gone = set(data.draw(st.lists(st.sampled_from(names), max_size=n)))
        graph = CapacitatedMultigraph(
            names, {e: c for e, c in caps.items() if not gone.intersection(e)}
        )
        kept = {v for v in names if v != active and graph.degree(v) > 0}
        checks = named_checks(graph, connectivity_snapshot(graph, active, tree_joins(tree)))
        # every weight is the pair's connectivity in the tree
        for x, y, w in checks:
            assert x in kept and y in kept and x != y
            assert w == lam[node_pair(x, y)]
        # the checks form a forest over the kept nodes
        component = {v: {v} for v in kept}
        for x, y, _ in checks:
            assert component[x] is not component[y]
            merged = component[x] | component[y]
            for v in merged:
                component[v] = merged
        # its path bottleneck covers every demand among kept nodes
        for x, y in combinations(sorted(kept), 2):
            assert forest_bottleneck(checks, x, y) >= lam[(x, y)]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_replay_matches_a_fresh_union_find(self, data):
        # random capacitated tree with shuffled nodes and edges; kept nodes
        # keep tree capacity or gain capacity split off onto new pairs
        n = data.draw(st.integers(1, 10))
        names = data.draw(st.permutations([f"n{i}" for i in range(n)]))
        caps = {}
        for i in range(1, n):
            caps[(names[data.draw(st.integers(0, i - 1))], names[i])] = data.draw(st.integers(0, 6))
        tree_edges = data.draw(st.permutations(sorted(caps.items())))
        tree = CapacitatedMultigraph(names, dict(tree_edges))
        active = data.draw(st.sampled_from(names))
        gone = set(data.draw(st.lists(st.sampled_from(names), max_size=n)))
        graph = CapacitatedMultigraph(
            names, {e: c for e, c in caps.items() if not gone.intersection(e)}
        )
        left = sorted(set(names) - gone)
        if len(left) >= 2:
            pairs = st.tuples(st.sampled_from(left), st.sampled_from(left))
            for u, w in data.draw(st.lists(pairs, max_size=4)):
                if u != w:
                    add_capacity(graph, u, w, 1)
        replayed = connectivity_snapshot(graph, active, tree_joins(tree, tree_edges))
        assert named_checks(graph, replayed) == reference_snapshot(graph, active, tree_edges)


class TestConnectivitySnapshot:
    def test_paths_through_the_excluded_node_still_count(self):
        g = CapacitatedMultigraph("asb", {("a", "s"): 2, ("s", "b"): 2})
        assert normalized(g, connectivity_snapshot(g, "s", tree_joins(g))) == {(("a", "b"), 2)}

    def test_paths_through_eliminated_nodes_still_count(self):
        # e was split off after the tree was read: it has no degree left,
        # but the tree path a-e-b still sets the demand of a and b
        tree = [(("a", "e"), 3), (("b", "e"), 2)]
        g = CapacitatedMultigraph("abes", {("a", "s"): 2, ("b", "s"): 2, ("a", "b"): 1})
        assert normalized(g, connectivity_snapshot(g, "s", tree_joins(g, tree))) == {(("a", "b"), 2)}

    def test_zero_degree_nodes_are_dropped(self):
        g = CapacitatedMultigraph("asbd", {("a", "s"): 2, ("s", "b"): 2})
        assert normalized(g, connectivity_snapshot(g, "s", tree_joins(g))) == {(("a", "b"), 2)}

    def test_too_few_nodes_left(self):
        g = CapacitatedMultigraph("as", {("a", "s"): 2})
        assert connectivity_snapshot(g, "s", tree_joins(g)) == []

    def test_unknown_exclude(self):
        with pytest.raises(UnknownNode, match="unknown node 'zz'"):
            connectivity_snapshot(CapacitatedMultigraph("ab"), "zz", [])

    def test_reads_the_given_tree_edges_without_flows(self, monkeypatch):
        # weights come from the tree edges passed in, not from the graph's
        # current capacities, and no flow recomputes them
        monkeypatch.setattr(maxflow, "_augment", None)
        g = CapacitatedMultigraph("abs", {("a", "s"): 2, ("b", "s"): 2})
        tree = [(("a", "s"), 7), (("b", "s"), 9)]
        assert normalized(g, connectivity_snapshot(g, "s", tree_joins(g, tree))) == {(("a", "b"), 7)}


class TestSplitState:
    def test_default_snapshot(self):
        g = star_graph({"a": 2, "b": 2, "c": 2})
        state = SplitState(g, "h", tree_joins(g))
        checks = normalized(g, state.demands)
        assert len(checks) == 2 and {w for _, w in checks} == {2}
        assert {v for pair, _ in checks for v in pair} == {"a", "b", "c"}
        assert state.events == []
        with pytest.raises(UnknownNode, match="unknown node 'zz'"):
            SplitState(g, "zz", tree_joins(g))

    def test_demands_read_after_a_split_are_those_at_activation(self):
        # a split at the active node changes no other node's degree
        g = star_graph({"a": 2, "b": 2, "c": 2})
        joins = tree_joins(g)
        before = connectivity_snapshot(g, "h", joins)
        state = SplitState(g, "h", joins)
        g.split("h", "a", "b", 2)
        assert state.demands == before
        assert state.demands is state.demands


class TestAdmissibleAmount:
    def test_uniform_star_allows_one_unit(self):
        g = star_graph({"a": 2, "b": 2, "c": 2})
        state = SplitState(g, "h", tree_joins(g))
        assert admissible_amount(state, "a", "b") == 1

    def test_two_leaf_star_splits_completely(self):
        g = star_graph({"a": 3, "b": 3})
        state = SplitState(g, "h", tree_joins(g))
        assert admissible_amount(state, "a", "b") == 3

    def test_probing_leaves_the_graph_unchanged(self):
        g = star_graph({"a": 2, "b": 2, "c": 2})
        state = SplitState(g, "h", tree_joins(g))
        admissible_amount(state, "a", "b")
        untouched = star_graph({"a": 2, "b": 2, "c": 2})
        assert dict(g.positive_pairs()) == dict(untouched.positive_pairs())

    def test_loop_pair_is_refused_before_the_graph_is_touched(self):
        g = star_graph({"a": 4, "b": 4})
        state = SplitState(g, "h", tree_joins(g))
        with pytest.raises(UnknownNode, match="'a' cannot pair with itself"):
            admissible_amount(state, "a", "a")
        assert dict(g.positive_pairs()) == {("a", "h"): 4, ("b", "h"): 4}

    def test_rejects_non_neighbors(self):
        g = star_graph({"a": 2, "b": 2})
        g2 = CapacitatedMultigraph(list(g.nodes) + ["d"])
        for (u, v), c in g.positive_pairs():
            g2.set_capacity(u, v, c)
        state = SplitState(g2, "h", tree_joins(g2))
        with pytest.raises(UnknownNode, match="'d' does not neighbor 'h'"):
            admissible_amount(state, "a", "d")
        with pytest.raises(UnknownNode, match="is the active node"):
            admissible_amount(state, "h", "a")

    def test_a_probe_with_no_demand_above_safe_makes_no_split(self):
        g = star_graph({"a": 2, "b": 2, "c": 2})
        state = SplitState(g, "h", tree_joins(g))
        top = max(r for _, _, r in state.demands)
        # 5 units exceed both capacities at h, so making the split would raise
        assert splitoff._demands_hold(state, top, "a", "b", 5)
        with pytest.raises(ValueError, match="cannot split 5 units"):
            splitoff._demands_hold(state, top - 1, "a", "b", 5)
        assert dict(g.positive_pairs()) == {("a", "h"): 2, ("b", "h"): 2, ("c", "h"): 2}

    def test_a_demand_at_safe_plus_one_runs_its_flow(self):
        g = star_graph({"a": 2, "b": 2, "c": 2})
        state = SplitState(g, "h", tree_joins(g))
        state.demands = [(*ids(g, "ac"), 2)]
        # splitting 2 units of a-b strands a from c, so the one demand above 1 fails
        assert not splitoff._demands_hold(state, 1, "a", "b", 2)
        assert dict(g.positive_pairs()) == {("a", "h"): 2, ("b", "h"): 2, ("c", "h"): 2}

    def test_partial_amount_on_skewed_star(self):
        # splitting a-b beyond 2 units would strand a from c
        g = star_graph({"a": 3, "b": 3, "c": 2})
        state = SplitState(g, "h", tree_joins(g))
        assert admissible_amount(state, "a", "b") == 2


class TestSplitNode:
    def test_uniform_star_becomes_a_triangle(self):
        g = star_graph({"a": 2, "b": 2, "c": 2})
        state = SplitState(g, "h", tree_joins(g))
        split_node(state)
        assert state.events == [("a", "b", 1), ("a", "c", 1), ("b", "c", 1)]
        assert dict(g.positive_pairs()) == {
            ("a", "b"): 1,
            ("a", "c"): 1,
            ("b", "c"): 1,
        }

    def test_skewed_star_keeps_the_heavy_pair(self):
        g = star_graph({"a": 3, "b": 3, "c": 2})
        state = SplitState(g, "h", tree_joins(g))
        split_node(state)
        assert state.events == [("a", "b", 2), ("a", "c", 1), ("b", "c", 1)]
        assert dict(g.positive_pairs()) == {
            ("a", "b"): 2,
            ("a", "c"): 1,
            ("b", "c"): 1,
        }

    def test_connectivities_survive(self):
        g = star_graph({"a": 4, "b": 4, "c": 2, "d": 2})
        state = SplitState(g, "h", tree_joins(g))
        lam = all_pairs_connectivity(g)
        split_node(state)
        assert g.degree("h") == 0
        for x, y, d in state.demands:
            assert max_flow(g, (x,), y)[0] >= d
        for x, y in combinations("abcd", 2):
            assert name_flow(g, (x,), {y})[0] >= lam[(x, y)]

    def test_unit_legs_are_cut_edges_and_block_splitting(self):
        # every leg is a bridge, so any split strands the remaining legs;
        # this is the configuration the capacity >= 2 precondition excludes
        g = star_graph({"a": 1, "b": 1, "c": 1, "d": 1})
        with pytest.raises(SolverInternalError, match="no admissible split remains at 'h'"):
            split_node(SplitState(g, "h", tree_joins(g)))

    def test_leg_above_the_largest_demand_plus_one_is_left_over(self):
        # the b leg carries 4, but the only demand across it is lam(a, b) = 2;
        # after (a, b) splits at 2, the 2 units left on b could go only to a
        # loop pair, which split-off never takes
        g = star_graph({"a": 2, "b": 4})
        state = SplitState(g, "h", tree_joins(g))
        with pytest.raises(SolverInternalError, match="no admissible split remains at 'h'"):
            split_node(state)
        assert state.events == [("a", "b", 2)]

    def test_an_odd_degree_is_refused(self):
        g = star_graph({"a": 2, "b": 1})
        with pytest.raises(SolverInternalError, match="odd degree at 'h'"):
            split_node(SplitState(g, "h", tree_joins(g)))

    def test_an_odd_degree_is_refused_under_python_O(self):
        # `python -O` strips asserts; the parity check raises, so it stays
        code = (
            "from treesynth import SolverInternalError\n"
            "from treesynth.maxflow import CapacitatedMultigraph\n"
            "from treesynth.splitoff import SplitState, split_node\n"
            "print(__debug__)\n"
            "g = CapacitatedMultigraph('hab', {('h', 'a'): 2, ('h', 'b'): 1})\n"
            "try:\n"
            "    split_node(SplitState(g, 'h', []))\n"
            "except SolverInternalError as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\nodd degree at 'h'\n", "")


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

    @pytest.mark.parametrize("lengths", [LENGTH_POOL, ("0",)])
    def test_flat_tree_realization_is_its_capacity(self, monkeypatch, lengths):
        # with no inner node solve builds no graph, and it returns what the
        # graph path extracts, zero capacities dropped as the graph drops them
        built = []
        init = CapacitatedMultigraph.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        for k in range(2, 41):
            instance = random_instance(k, k, 0, lengths=lengths)
            with monkeypatch.context() as patch:
                patch.setattr(CapacitatedMultigraph, "__init__", counted)
                solution = solve(instance)
            assert built == [] and solution.trace == ()
            graph = CapacitatedMultigraph(instance.tree.nodes, solution.capacity)
            assert solution.realization == extract_realization(graph, instance.terminals)
            sparse = random_instance(k, k, 0, rmin=0, rmax=2, lengths=lengths)
            base = sparse.base_capacity()
            graph = CapacitatedMultigraph(sparse.tree.nodes, base)
            assert realize_capacity(sparse, base) == (extract_realization(graph, sparse.terminals), ())

    @pytest.mark.parametrize("inner, passes", [(4, 1), (0, 0)])
    def test_kruskal_joins_are_taken_once_per_solve(self, monkeypatch, inner, passes):
        # every activation replays one join list; a flat tree takes none
        calls = []
        joins = splitoff.max_spanning_joins

        def counted(*args):
            calls.append(args)
            return joins(*args)

        monkeypatch.setattr(splitoff, "max_spanning_joins", counted)
        solution = solve(parse_instance(json.dumps(generate_document(12, inner, 2, 6, 1))))
        assert len(calls) == passes
        assert len({s for s, *_ in solution.trace}) == inner

    def test_a_chain_builds_no_snapshot(self, monkeypatch):
        # t0-s0-...-s1999-t1, r(t0, t1) = 3: the degree rule splits every
        # pair whole, so no activation reads its demands
        n = 2000
        path = ["t0"] + [f"s{i}" for i in range(n)] + ["t1"]
        edges = [(u, v, 1) for u, v in zip(path, path[1:])]
        instance = build_instance(["t0", "t1"], path, edges, [("t0", "t1", 3)])
        calls = []
        snapshot = splitoff.connectivity_snapshot
        monkeypatch.setattr(splitoff, "connectivity_snapshot", lambda *args: calls.append(args) or snapshot(*args))
        solution = solve(instance)
        assert solution.cost == 6003
        assert len(solution.trace) == n
        assert calls == []

    def test_snapshots_are_built_on_first_read_only(self, monkeypatch):
        # the checks an activation reads are those it would build at once
        eager, late = {}, {}
        init, snapshot = SplitState.__init__, splitoff.connectivity_snapshot

        def recording_init(state, graph, s, joins):
            init(state, graph, s, joins)
            eager[s] = snapshot(graph, s, joins)

        def recording_snapshot(graph, s, joins):
            late[s] = snapshot(graph, s, joins)
            return late[s]

        monkeypatch.setattr(SplitState, "__init__", recording_init)
        monkeypatch.setattr(splitoff, "connectivity_snapshot", recording_snapshot)
        solve(parse_instance(json.dumps(generate_document(60, 20, 2, 6, 1))))
        assert 0 < len(late) < len(eager)
        assert all(late[s] == eager[s] for s in late)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_split_preserves_snapshot_connectivities(data):
    # legs of capacity >= 2 leave no cut edge at the center, and a tight
    # star (largest leg at most the second largest plus one) leaves no leg
    # above the largest demand across it plus one, so full elimination is
    # guaranteed; an even total keeps the degrees splittable
    k = data.draw(st.integers(2, 5))
    caps = {}
    for i in range(k):
        caps[f"x{i}"] = data.draw(st.integers(2, 5))
    second = sorted(caps.values())[-2]
    for leg, c in caps.items():
        caps[leg] = min(c, second + 1)
    if sum(caps.values()) % 2:
        caps[min(caps, key=caps.get)] += 1
    legs = sorted(caps.values())
    assert legs[-1] <= legs[-2] + 1
    g = star_graph(caps)
    state = SplitState(g, "h", tree_joins(g))
    lam = all_pairs_connectivity(g)
    split_node(state)
    assert g.degree("h") == 0
    for x, y, d in state.demands:
        assert max_flow(g, (x,), y)[0] >= d
    for x, y in combinations(sorted(caps), 2):
        assert name_flow(g, (x,), {y})[0] >= lam[(x, y)]


def _split_copy(graph, s, u, w, amount):
    """A copy of graph with `amount` units of (s, u), (s, w) split off."""
    g = CapacitatedMultigraph(graph.nodes, dict(graph.positive_pairs()))
    if u == w:
        add_capacity(g, s, u, -2 * amount)
    else:
        add_capacity(g, s, u, -amount)
        add_capacity(g, s, w, -amount)
        add_capacity(g, u, w, amount)
    return g


def reference_amount(state, u, w):
    """Admissible amount with every demand checked by max-flow on a copy:
    one unit first, then the full amount, then a binary search."""
    graph, s = state.graph, state.active
    zu, zw = graph.capacity(s, u), graph.capacity(s, w)
    cap = zu // 2 if u == w else min(zu, zw)

    def holds(amount):
        g = _split_copy(graph, s, u, w, amount)
        return all(max_flow(g, (x,), y)[0] >= r for x, y, r in state.demands)

    if cap == 0 or not holds(1):
        return 0
    if holds(cap):
        return cap
    lo, hi = 1, cap - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


@settings(max_examples=60, deadline=None)
@given(solvable_instances(max_terminals=8, max_inner=4, rmax=10))
def test_every_probe_matches_the_all_flows_reference(instance):
    real = splitoff.admissible_amount

    def checked(state, u, w):
        expected = reference_amount(state, u, w)
        got = real(state, u, w)
        assert got == expected, (state.active, u, w)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitoff, "admissible_amount", checked)
        solve(instance)


def test_every_pair_the_degree_rule_settles_matches_the_reference():
    # every amount up to free = zu + zw - deg(s)/2 keeps every demand: a
    # pair with free >= cap runs no flow, and no probe at or below free runs
    # a check flow
    whole, probed = [], []
    cuts, holds = [], []
    real_amount, real_flow, real_hold = (
        splitoff.admissible_amount, splitoff.max_flow, splitoff._demands_hold,
    )

    def flow(*args):
        result = real_flow(*args)
        cuts.append(result)
        return result

    def hold(state, safe, *split):
        holds.append(safe)
        return real_hold(state, safe, *split)

    def checked(state, u, w):
        graph, s = state.graph, state.active
        zu, zw = graph.capacity(s, u), graph.capacity(s, w)
        cap = min(zu, zw)
        free = zu + zw - graph.degree(s) // 2
        expected = reference_amount(state, u, w)
        cuts.clear()
        holds.clear()
        got = real_amount(state, u, w)
        assert got == expected, (s, u, w)
        if cap <= free:
            whole.append((s, u, w))
            assert got == cap and cuts == [], (s, u, w, free)
        elif 0 < free:
            probed.append((s, u, w))
            assert expected >= free, (s, u, w, free)
            # the merged cut runs first; each check probe gets mu - 2a
            mu = cuts[0][0]
            assert all((mu - safe) // 2 > free for safe in holds), (s, u, w, free)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitoff, "admissible_amount", checked)
        mp.setattr(splitoff, "max_flow", flow)
        mp.setattr(splitoff, "_demands_hold", hold)
        for seed in range(30):
            solve(random_instance(seed, terminals=10, inner=4, rmax=(3, 6, 9)[seed % 3]))
    assert whole and probed


def test_every_refusal_by_the_merged_cut_is_refused_by_the_reference():
    # X*, the side of the least {u, w}-s cut mu, refuses every amount above
    # (mu - R) // 2 with no flow, R the largest demand it separates
    refusals = []
    cuts = []
    active = [None]
    real_amount, real_flow = splitoff.admissible_amount, splitoff.max_flow

    def flow(graph, sources, sink, *rest):
        result = real_flow(graph, sources, sink, *rest)
        if graph.nodes[sink] == active[0]:
            cuts.append(result)
        return result

    def checked(state, u, w):
        active[0] = state.active
        cuts.clear()
        expected = reference_amount(state, u, w)
        got = real_amount(state, u, w)
        assert len(cuts) <= 1, (state.active, u, w)
        if cuts:
            mu, side = cuts[0]
            crossing = max((r for x, y, r in state.demands if side[x] != side[y]), default=0)
            refused = (mu - crossing) // 2 + 1
            zu, zw = state.graph.capacity(state.active, u), state.graph.capacity(state.active, w)
            if refused <= min(zu, zw):
                refusals.append((state.active, u, w))
                assert expected < refused, (state.active, u, w, mu, crossing)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitoff, "admissible_amount", checked)
        mp.setattr(splitoff, "max_flow", flow)
        for seed in range(30):
            solve(random_instance(seed, terminals=10, inner=4, rmax=(3, 6, 9)[seed % 3]))
    assert refusals


def test_checks_the_safe_bound_skips_hold_by_max_flow():
    skipped = []
    real = splitoff._demands_hold

    def checked(state, safe, u, w, amount):
        graph, s = state.graph, state.active
        graph.split(s, u, w, amount)
        try:
            for x, y, needed in state.demands:
                if needed <= safe:
                    skipped.append((x, y))
                    assert max_flow(graph, (x,), y)[0] >= needed, (s, x, y, needed, safe)
        finally:
            graph.split(s, u, w, -amount)
        return real(state, safe, u, w, amount)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitoff, "_demands_hold", checked)
        for seed in range(30):
            solve(random_instance(seed, terminals=10, inner=4, rmax=10))
    assert skipped


def test_loop_and_same_branch_pairs_are_never_admissible():
    # solve passes base + join, so each tree edge e = (s, t) carries at most
    # r + 1, r the requirement that set base(e); splitting a >= 1 units of a
    # loop pair, or of two neighbors beyond the same tree edge of s, lowers
    # the cut of that branch to c(e) - 2a < r
    loops, same_branch, splits = [], [], []
    real_split = splitoff.split_node
    tree = None

    def branch(s, v):
        return tree_path(tree, s, v)[0]

    def checked(state):
        s = state.active
        neighbors = sorted(state.graph.neighbors(s))
        for u in neighbors:
            assert reference_amount(state, u, u) == 0, (s, u)
            loops.append((s, u))
        for u, w in combinations(neighbors, 2):
            if branch(s, u) == branch(s, w):
                assert reference_amount(state, u, w) == 0, (s, u, w)
                same_branch.append((s, u, w))
        real_split(state)
        for u, w, _ in state.events:
            assert branch(s, u) != branch(s, w), (s, u, w)
            splits.append((s, u, w))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitoff, "split_node", checked)
        for seed in range(100):
            k = 6 + seed % 9
            instance = random_instance(
                seed, terminals=k, inner=k // 3, rmax=2 + seed % 8,
                lengths=("0",) if seed % 2 else LENGTH_POOL,
            )
            tree = instance.tree
            solve(instance)
    assert loops and same_branch and splits


def test_a_flow_still_refuses_probes_and_the_search_goes_below_top():
    # at s2, (t11, t4) has free = 0 < cap = 2: the merged cut allows 2, a
    # check flow refuses it, and the binary search's probe of 1 is refused
    # too; the pair ends at the reference amount, 0
    text = json.dumps(generate_document(14, 4, 2, 9, 236))
    refused = []
    real_amount, real_hold = splitoff.admissible_amount, splitoff._demands_hold
    holds = []

    def hold(state, safe, *split):
        held = real_hold(state, safe, *split)
        holds.append(held)
        return held

    def checked(state, u, w):
        holds.clear()
        got = real_amount(state, u, w)
        if False in holds:
            refused.append((state.active, u, w, got, holds.count(False)))
            assert got == reference_amount(state, u, w), (state.active, u, w)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitoff, "admissible_amount", checked)
        mp.setattr(splitoff, "_demands_hold", hold)
        solve(parse_instance(text))
    assert refused == [("s2", "t11", "t4", 0, 2)]
