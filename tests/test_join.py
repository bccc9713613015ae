"""Parity-constrained minimum edge selections on trees."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesynth import SolverInternalError, TooLarge, join as join_module, min_cost_ij_join
from treesynth.join import ParityInstance, parity_sets, satisfies_parity
from treesynth.model import MetricTree

from helpers import brute_force_join, parity_marked_trees, star_instance


def path3(l1=1, l2=2):
    return MetricTree(["p1", "p2", "p3"], [("p1", "p2", l1), ("p2", "p3", l2)], "p1")


def join(tree, even=(), odd=()):
    return min_cost_ij_join(ParityInstance(tree, frozenset(even), frozenset(odd)))


class TestParityInstance:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            ParityInstance(path3(), frozenset({"p1"}), frozenset({"p1"}))

    def test_rejects_stray_nodes(self):
        with pytest.raises(ValueError):
            ParityInstance(path3(), frozenset({"zz"}), frozenset())

    def test_coerces_iterables(self):
        p = ParityInstance(path3(), ["p1"], ["p2"])
        assert p.even_set == frozenset({"p1"})
        assert p.odd_set == frozenset({"p2"})


class TestSatisfiesParity:
    def test_counts_degrees(self):
        assert satisfies_parity({"p2"}, {"p1", "p3"}, [("p1", "p2"), ("p2", "p3")])
        assert not satisfies_parity({"p2"}, {"p1", "p3"}, [("p1", "p2")])
        assert satisfies_parity(set(), set(), [])


class TestMinCostJoin:
    def test_empty_constraints_pick_nothing(self):
        result = join(path3())
        assert result.edges == ()
        assert result.cost == 0

    def test_both_ends_odd_middle_even(self):
        result = join(path3(), even=("p2",), odd=("p1", "p3"))
        assert result.edges == (("p1", "p2"), ("p2", "p3"))
        assert result.cost == 3

    def test_single_odd_node_takes_cheapest_incident_path(self):
        result = join(path3(), odd=("p2",))
        assert result.edges == (("p1", "p2"),)
        assert result.cost == 1

    def test_odd_end_prefers_short_side(self):
        result = join(path3(), odd=("p3",))
        assert result.edges == (("p2", "p3"),)
        assert result.cost == 2

    def test_free_nodes_absorb_parity(self):
        # p1 odd forces its edge; p2 is free so degree 1 there is fine
        result = join(path3(), odd=("p1",))
        assert result.edges == (("p1", "p2"),)
        assert result.cost == 1

    def test_infeasible_single_node(self):
        tree = MetricTree(["n"], [], "n")
        assert join(tree, odd=("n",)) is None

    def test_infeasible_odd_against_even(self):
        tree = MetricTree(["a", "b"], [("a", "b", 1)], "a")
        assert join(tree, even=("b",), odd=("a",)) is None

    def test_two_odd_nodes_connect(self):
        tree = MetricTree(["a", "b"], [("a", "b", 1)], "a")
        result = join(tree, odd=("a", "b"))
        assert result.edges == (("a", "b"),)
        assert result.cost == 1

    def test_a_join_off_its_parity_is_an_internal_error(self, monkeypatch):
        # the parity certificate raises, so `python -O` keeps it
        monkeypatch.setattr(join_module, "satisfies_parity", lambda *_: False)
        tree = MetricTree(["a", "b"], [("a", "b", 1)], "a")
        with pytest.raises(SolverInternalError, match="the join's edges miss the parity they were chosen for"):
            join(tree, odd=("a", "b"))

    def test_tie_breaks_toward_earliest_edges(self):
        # all three star edges cost the same; the first in tree order wins
        tree = MetricTree(
            ["h", "a", "b", "c"],
            [("h", "a", 1), ("h", "b", 1), ("h", "c", 1)],
            "h",
        )
        result = join(tree, odd=("h",))
        assert result.edges == (("a", "h"),)
        assert result.cost == 1

    def test_zero_length_edges_still_tie_break(self):
        tree = MetricTree(
            ["h", "a", "b"],
            [("h", "a", 0), ("h", "b", 0)],
            "h",
        )
        result = join(tree, odd=("a", "b"))
        assert result.cost == 0
        assert result.edges == (("a", "h"), ("b", "h"))

    def test_odd_pair_routes_through_a_free_center(self):
        # spider with legs 1, 1, 10: the odd legs pair up across the center
        tree = MetricTree(
            ["h", "a", "b", "c"],
            [("h", "a", 1), ("h", "b", 1), ("h", "c", 10)],
            "h",
        )
        result = join(tree, even=("h",), odd=("a", "b"))
        assert result.edges == (("a", "h"), ("b", "h"))
        assert result.cost == 2

    @pytest.mark.parametrize("root", ["v000", "v050", "v100"])
    def test_tie_break_past_a_machine_word(self, root):
        # path v0-...-v100 of zero lengths, v10 and v90 odd, v0 and v100
        # free: edges 10..89 (top bit 89) beat 0..9 + 90..99 (top bit 99),
        # a tie the brute-force oracle cannot reach at 24 edges
        tree, even, odd = wide_path(root, {})
        result = join(tree, even, odd)
        assert result.edges == tree.edges[10:90]
        assert result.cost == 0

    @pytest.mark.parametrize("root", ["v000", "v050", "v100"])
    def test_cost_decides_before_the_bitmask_past_a_machine_word(self, root):
        # one unit on edge 50 makes the ends, 0..9 + 90..99, the cheaper join
        tree, even, odd = wide_path(root, {50: 1})
        result = join(tree, even, odd)
        assert result.edges == tree.edges[:10] + tree.edges[90:]
        assert result.cost == 0


def wide_path(root, lengths):
    """Path v000-...-v100 with edge i of length lengths.get(i, 0), given in
    order; v010 and v090 odd, the other inner nodes even, both ends free."""
    names = [f"v{i:03d}" for i in range(101)]
    edges = [(a, b, lengths.get(i, 0)) for i, (a, b) in enumerate(zip(names, names[1:]))]
    tree = MetricTree(names, edges, root)
    odd = {"v010", "v090"}
    return tree, set(names[1:100]) - odd, odd


class TestParitySets:
    def test_classifies_inner_loads(self):
        instance = star_instance({("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 2})
        base = instance.base_capacity()
        p = parity_sets(instance, base)
        assert p.even_set == frozenset({"hub"})
        assert p.odd_set == frozenset()

    def test_odd_load_lands_in_the_odd_set(self):
        instance = star_instance({("a", "b"): 3, ("a", "c"): 3, ("b", "c"): 3})
        p = parity_sets(instance, instance.base_capacity())
        assert p.even_set == frozenset()
        assert p.odd_set == frozenset({"hub"})

    def test_terminals_stay_free(self):
        instance = star_instance({("a", "b"): 3, ("a", "c"): 3, ("b", "c"): 3})
        p = parity_sets(instance, instance.base_capacity())
        assert "a" not in p.even_set | p.odd_set


class TestBruteForceJoin:
    def test_matches_on_a_fixed_example(self):
        p = ParityInstance(path3(), frozenset({"p2"}), frozenset({"p1", "p3"}))
        assert brute_force_join(p) == min_cost_ij_join(p)

    def test_agrees_on_infeasible(self):
        tree = MetricTree(["a", "b"], [("a", "b", 1)], "a")
        p = ParityInstance(tree, frozenset({"b"}), frozenset({"a"}))
        assert brute_force_join(p) is None

    def test_size_guard(self):
        n = 26
        tree = MetricTree(
            [f"q{i:02d}" for i in range(n)],
            [(f"q{i:02d}", f"q{i + 1:02d}", 1) for i in range(n - 1)],
            "q00",
        )
        with pytest.raises(TooLarge):
            brute_force_join(ParityInstance(tree, frozenset(), frozenset()))


def _matches_brute_force(case):
    tree, even, odd = case
    p = ParityInstance(tree, even, odd)
    fast = min_cost_ij_join(p)
    slow = brute_force_join(p)
    if slow is None:
        assert fast is None
        return
    assert fast is not None
    assert fast.cost == slow.cost
    # identical tie-break, so the edge sets agree too
    assert fast.edges == slow.edges
    assert satisfies_parity(even, odd, fast.edges)


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(lambda elsewhere: parity_marked_trees(root_elsewhere=elsewhere)))
def test_join_matches_brute_force_exactly(case):
    _matches_brute_force(case)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["ef", "eof"]).flatmap(
        lambda marks: parity_marked_trees(marks=marks, lengths=("0", "0", "1"))
    )
)
def test_join_matches_brute_force_on_all_even_trees_and_zero_lengths(case):
    """Ties between zero-length edges, and trees with no odd node, where the
    empty selection is returned without the dynamic program."""
    _matches_brute_force(case)


@settings(max_examples=100, deadline=None)
@given(parity_marked_trees())
def test_join_cost_is_a_fraction_and_edges_are_tree_edges(case):
    tree, even, odd = case
    result = min_cost_ij_join(ParityInstance(tree, even, odd))
    if result is None:
        return
    assert isinstance(result.cost, Fraction)
    assert set(result.edges) <= set(tree.edges)
    assert len(set(result.edges)) == len(result.edges)
