"""Independent checkers and the exhaustive reference solver."""

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesynth import (
    PreconditionViolated,
    Realization,
    SolverInternalError,
    TooLarge,
    UnknownNode,
    brute_force_insp,
    build_instance,
    fractional_lower_bound,
    maxflow,
    solve,
    verify,
    verify_realization,
)
from treesynth.maxflow import CapacitatedMultigraph, max_flow
from treesynth.model import EdgeCapacity, node_pair
from treesynth.verify import verify_feasible_capacity

import helpers
from helpers import (
    capacity_projection,
    forest_inputs,
    name_flow,
    random_instance,
    reference_verify,
    solvable_instances,
    star_instance,
    uniform_integer_formula,
    uniform_star,
    zero_bridge_instance,
)


def star_332():
    return star_instance({("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 2})


class TestVerifyRealization:
    def test_accepts_a_feasible_realization(self):
        instance = star_332()
        good = Realization({("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 1})
        assert verify_realization(instance, good) == []

    def test_reports_deficits_in_sorted_pair_order(self):
        instance = star_332()
        bad = Realization({("a", "b"): 2})
        assert verify_realization(instance, bad) == [
            ("a", "b", 1),
            ("a", "c", 2),
            ("b", "c", 2),
        ]

    def test_sorts_deficits_of_pairs_stored_out_of_order(self):
        instance = star_instance({("b", "c"): 2, ("a", "c"): 2, ("a", "b"): 3})
        bad = Realization({("a", "b"): 2})
        assert verify_realization(instance, bad) == [
            ("a", "b", 1),
            ("a", "c", 2),
            ("b", "c", 2),
        ]

    def test_flow_can_route_around_a_weak_direct_edge(self):
        instance = star_332()
        # no direct a-b capacity at all; the 3 units route through c
        indirect = Realization({("a", "c"): 3, ("b", "c"): 3})
        assert verify_realization(instance, indirect) == []

    def test_rejects_stray_pairs(self):
        with pytest.raises(UnknownNode, match="'a'-'hub' is not a terminal pair"):
            verify_realization(star_332(), Realization({("a", "hub"): 1}))

    def test_empty_realization_reports_the_full_deficit(self):
        instance = star_instance({("a", "b"): 2})
        assert verify_realization(instance, Realization({})) == [("a", "b", 2)]


def per_pair_violations(instance, realization):
    """Reference audit: one exact max-flow per requirement pair, in sorted order."""
    graph = CapacitatedMultigraph(instance.terminals, dict(realization.items()))
    violations = []
    for (s, t), r in sorted(instance.requirements.pairs()):
        flow = name_flow(graph, (s,), {t})[0]
        if flow < r:
            violations.append((s, t, r - flow))
    return violations


@contextmanager
def counted_flows():
    """A list that gets one entry per max-flow run inside the block: its
    arguments in names, (graph, sources, sink class, limit), the class read
    off the label list when the flow starts, since the audit goes on to
    relabel it."""
    calls = []
    augment = maxflow._augment

    def counted(graph, sources, sink, label, limit=None):
        names = graph.nodes
        sinks = frozenset(y for y, c in zip(names, label) if c == label[sink])
        calls.append((graph, tuple(names[x] for x in sources), sinks, limit))
        return augment(graph, sources, sink, label, limit)

    maxflow._augment = counted
    try:
        yield calls
    finally:
        maxflow._augment = augment


def intact_values(instance):
    """The solver's realization, or each requirement on its own pair when the
    solver refuses the instance (a cut requirement below 2)."""
    try:
        return dict(solve(instance).realization.items())
    except PreconditionViolated:
        return dict(instance.requirements.pairs())


def damaged_values(values, units, rng):
    """`values` with `units` units taken off randomly chosen positive pairs."""
    values = dict(values)
    for _ in range(units):
        positive = sorted(p for p, c in values.items() if c)
        if not positive:
            break
        values[rng.choice(positive)] -= 1
    return {p: c for p, c in values.items() if c}


def random_values(instance, rng):
    """Random capacities on random terminal pairs."""
    terminals = instance.terminals
    values = {}
    for _ in range(rng.randint(0, 2 * len(terminals))):
        a, b = rng.sample(terminals, 2)
        values[node_pair(a, b)] = rng.randint(1, 4)
    return values


def assert_matches_per_pair(instance, values):
    """Compare with the reference; the audit runs at most one flow per pair."""
    realization = Realization(values)
    with counted_flows() as calls:
        verdict = verify_realization(instance, realization)
    assert len(calls) <= len(instance.requirements.pairs())
    assert verdict == per_pair_violations(instance, realization)
    return verdict


class TestForestAudit:
    """verify_realization against the per-pair reference, and its flow count."""

    def test_seeded_sweep_matches_per_pair_flows(self):
        rng = random.Random(10)
        deficits = 0
        for seed in range(60):
            k = rng.randint(2, 14)
            rmin = (0, 1, 2)[seed % 3]
            instance = random_instance(seed, k, rng.randint(0, k // 2), rmin=rmin, rmax=rng.randint(2, 6))
            intact = intact_values(instance)
            assert assert_matches_per_pair(instance, intact) == []
            candidates = [{}, random_values(instance, rng)]
            candidates += [damaged_values(intact, units, rng) for units in (1, 2, 3)]
            for values in candidates:
                deficits += bool(assert_matches_per_pair(instance, values))
        # most damaged, random and empty realizations fall short somewhere
        assert deficits > 150

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 9),
        st.integers(0, 3),
        st.sampled_from((0, 1, 2)),
        st.integers(2, 5),
        st.integers(0, 2**32 - 1),
        st.sampled_from(("intact", "damaged", "random", "empty")),
    )
    def test_matches_per_pair_flows(self, k, m, rmin, rmax, seed, kind):
        rng = random.Random(seed)
        instance = random_instance(seed, k, m, rmin=rmin, rmax=rmax)
        if kind == "random":
            values = random_values(instance, rng)
        elif kind == "empty":
            values = {}
        else:
            values = intact_values(instance)
            if kind == "damaged":
                values = damaged_values(values, rng.randint(1, 3), rng)
        assert_matches_per_pair(instance, values)

    def test_intact_ladder_solution_runs_one_flow_per_forest_join(self):
        # the 30/10 rung of `treesynth gen --seed 1`
        instance = random_instance(1, 30, 10)
        realization = solve(instance).realization
        with counted_flows() as calls:
            assert verify_realization(instance, realization) == []
        assert len(calls) == 29

    def test_damaged_ladder_solutions_settle_pairs_from_short_cuts(self):
        # the 30/10 rung, once per positive-length pair with one unit taken
        # off it; every damaged copy falls short somewhere
        instance = random_instance(1, 30, 10)
        values = dict(solve(instance).realization.items())
        flows = violations = 0
        for pair in sorted(p for p in values if instance.tree.distance(*p) > 0):
            damaged = dict(values)
            damaged[pair] -= 1
            realization = Realization(damaged)
            with counted_flows() as calls:
                verdict = verify_realization(instance, realization)
            assert verdict == per_pair_violations(instance, realization)
            assert verdict
            flows += len(calls)
            violations += len(verdict)
        assert (flows, violations) == (1029, 1470)

    def test_a_forest_cut_settles_a_pair_off_the_forest(self):
        # forest a-b (4) and a-c (3); a-b holds, so a-c runs from c into the
        # held class {a, b} and falls short (2), and its side {c} also cuts
        # b-c, whose bound min(4, 2) = 2 meets that cut
        instance = star_instance({("a", "b"): 4, ("a", "c"): 3, ("b", "c"): 3})
        realization = Realization({("a", "b"): 4, ("a", "c"): 1, ("b", "c"): 1})
        with counted_flows() as calls:
            verdict = verify_realization(instance, realization)
        assert verdict == [("a", "c", 1), ("b", "c", 1)]
        assert verdict == per_pair_violations(instance, realization)
        assert [args[1:] for args in calls] == [(("a",), {"b"}, 4), (("c",), {"a", "b"}, 3)]

    def test_a_pair_no_kept_cut_separates_runs_its_own_flow(self):
        # both forest flows fall short (2) with side {a}, which does not cut
        # b-c, so b-c gets a flow of its own despite its bound of 2
        instance = star_instance({("a", "b"): 4, ("a", "c"): 3, ("b", "c"): 3})
        realization = Realization({("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 5})
        with counted_flows() as calls:
            verdict = verify_realization(instance, realization)
        assert verdict == [("a", "b", 2), ("a", "c", 1)]
        assert verdict == per_pair_violations(instance, realization)
        assert [args[1:] for args in calls] == [(("a",), {"b"}, 4), (("a",), {"c"}, 3), (("b",), {"c"}, 3)]

    def test_disconnected_requirements_flow_only_inside_components(self):
        # requirement components {a, b, c} and {d, e}: 2 + 1 forest joins
        instance = star_instance({("a", "b"): 3, ("b", "c"): 2, ("a", "c"): 2, ("d", "e"): 2})
        realization = Realization({("a", "b"): 2, ("b", "c"): 1, ("a", "c"): 1, ("d", "e"): 2})
        with counted_flows() as calls:
            assert verify_realization(instance, realization) == []
        assert len(calls) == 3


def counted_audits(instance, realization):
    """(violations, max_flow calls) of `verify_realization` and of the
    reference, each counted at the name it calls max-flow by."""
    calls = Counter()

    def counted(key):
        def run(*args):
            calls[key] += 1
            return max_flow(*args)

        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "max_flow", counted("audit"))
        mp.setattr(helpers, "max_flow", counted("reference"))
        got = verify_realization(instance, realization)
        expected = reference_verify(instance, realization)
    return (got, calls["audit"]), (expected, calls["reference"])


AUDIT_KINDS = ("intact", "damaged", "random", "empty", "tied")


def audit_values(instance, kind, rng):
    """A realization of one kind: as solved, damaged, random, empty, or
    random pairs all at 1, whose forest flows tie. One terminal has no pair."""
    if kind == "empty" or len(instance.terminals) < 2:
        return {}
    if kind == "random":
        return random_values(instance, rng)
    if kind == "tied":
        return dict.fromkeys(random_values(instance, rng), 1)
    values = intact_values(instance)
    return values if kind == "intact" else damaged_values(values, rng.randint(1, 3), rng)


class TestCandidateJoin:
    """verify_realization against its earlier form, which kept a bound for
    every pair: the same violations after the same max-flow calls."""

    @settings(max_examples=150, deadline=None)
    @given(forest_inputs(), st.sampled_from(AUDIT_KINDS), st.integers(0, 2**32 - 1))
    def test_matches_the_full_bound_table(self, args, kind, seed):
        instance = build_instance(*args)
        realization = Realization(audit_values(instance, kind, random.Random(seed)))
        got, expected = counted_audits(instance, realization)
        assert got == expected

    def test_seeded_sweep_matches_the_full_bound_table(self):
        rng = random.Random(27)
        violations = 0
        for seed in range(40):
            k = rng.randint(8, 18)
            instance = random_instance(seed, k, k // 3, rmin=seed % 3, rmax=rng.randint(2, 6))
            for kind in AUDIT_KINDS:
                got, expected = counted_audits(instance, Realization(audit_values(instance, kind, rng)))
                assert got == expected, (seed, kind)
                violations += len(got[0])
        assert violations > 1000


@settings(max_examples=150, deadline=None)
@given(forest_inputs(), st.sampled_from(AUDIT_KINDS), st.integers(0, 2**32 - 1))
def test_forest_inputs_match_per_pair_flows(args, kind, seed):
    # ties and zero rows are common here, so held classes merge in many orders
    instance = build_instance(*args)
    realization = Realization(audit_values(instance, kind, random.Random(seed)))
    assert verify_realization(instance, realization) == per_pair_violations(instance, realization)


class TestHeldClasses:
    """Each forest flow runs from the end of the smaller held class into the
    whole held class of the other end."""

    def chain(self, n):
        names = [f"t{i}" for i in range(n)]
        instance = helpers.path_instance(names, [1] * (n - 1), [(u, v, 2) for u, v in zip(names, names[1:])])
        return instance, names

    def test_an_intact_chain_flows_into_its_growing_class(self):
        instance, names = self.chain(5)
        realization = Realization({(u, v): 2 for u, v in zip(names, names[1:])})
        with counted_flows() as calls:
            assert verify_realization(instance, realization) == []
        # each pair holds, and the next runs from its new end into the class;
        # a tie keeps the first end as the source, and t0 joins t1's class
        assert [args[1:] for args in calls] == [
            (("t0",), {"t1"}, 2),
            (("t2",), {"t0", "t1"}, 2),
            (("t3",), {"t0", "t1", "t2"}, 2),
            (("t4",), {"t0", "t1", "t2", "t3"}, 2),
        ]

    def test_a_short_pair_merges_no_class(self):
        instance, names = self.chain(4)
        realization = Realization({("t0", "t1"): 2, ("t1", "t2"): 1, ("t2", "t3"): 2})
        with counted_flows() as calls:
            verdict = verify_realization(instance, realization)
        assert verdict == [("t1", "t2", 1)] == per_pair_violations(instance, realization)
        # t1-t2 falls short, so t2 and t3 start from classes of their own
        assert [args[1:] for args in calls] == [
            (("t0",), {"t1"}, 2),
            (("t2",), {"t0", "t1"}, 2),
            (("t2",), {"t3"}, 2),
        ]


class TestVerifyFeasibleCapacity:
    def test_base_of_even_load_star_is_feasible(self):
        instance = star_332()
        assert verify_feasible_capacity(instance, instance.base_capacity()) == []

    def test_reports_parity_then_coverage(self):
        instance = star_332()
        capacity = instance.base_capacity().bump([("c", "hub")])
        # load 9 at the hub is odd; coverage is fine
        assert verify_feasible_capacity(instance, capacity) == [("parity", "hub", 9)]

    def test_bumping_two_spokes_keeps_feasibility(self):
        instance = uniform_star(3, 2)
        bumped = instance.base_capacity().bump([("hub", "t0"), ("hub", "t1")])
        assert verify_feasible_capacity(instance, bumped) == []

    def test_undercapacity_is_reported_per_edge(self):
        instance = uniform_star(3, 2)
        values = dict(instance.base_capacity().items())
        values[("hub", "t2")] = 0
        capacity = EdgeCapacity(instance.tree, values)
        assert verify_feasible_capacity(instance, capacity) == [
            ("coverage", ("hub", "t2"), 0, 2)
        ]


class TestFractionalLowerBound:
    def test_half_length_star(self):
        assert fractional_lower_bound(star_332()) == 4

    def test_zero_bridge_fixture(self):
        assert fractional_lower_bound(zero_bridge_instance()) == 36


class TestUniformIntegerFormula:
    def test_known_values(self):
        assert uniform_integer_formula((2, 2, 2)) == 3
        assert uniform_integer_formula((3, 3, 3)) == 5
        assert uniform_integer_formula((3, 3, 2)) == 4
        assert uniform_integer_formula(()) == 0
        assert uniform_integer_formula((0, 0)) == 0

    def test_rejects_value_one(self):
        with pytest.raises(ValueError, match="every requirement maximum to differ from 1"):
            uniform_integer_formula((2, 1, 2))

    def test_rejects_non_ints(self):
        with pytest.raises(ValueError):
            uniform_integer_formula((2, -1))
        with pytest.raises(ValueError):
            uniform_integer_formula((2, True))
        with pytest.raises(ValueError):
            uniform_integer_formula((2, 2.0))


class TestCapacityProjection:
    def test_star_loads(self):
        instance = star_332()
        realization = Realization({("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 1})
        projected = capacity_projection(instance, realization)
        assert projected == instance.base_capacity()

    def test_cost_identity(self):
        instance = star_332()
        realization = Realization({("a", "b"): 3, ("b", "c"): 2})
        projected = capacity_projection(instance, realization)
        assert projected.cost() == instance.realization_cost(realization)

    def test_path_projection_counts_crossing_pairs(self):
        instance = build_instance(
            ["a", "b", "c"],
            ["a", "m", "b", "c"],
            [("a", "m", 1), ("m", "b", 1), ("m", "c", 1)],
            [("a", "b", 2), ("a", "c", 2)],
        )
        realization = Realization({("a", "b"): 2, ("a", "c"): 2})
        projected = capacity_projection(instance, realization)
        assert projected[("a", "m")] == 4
        assert projected[("b", "m")] == 2
        assert projected[("c", "m")] == 2


class TestBruteForceInsp:
    def test_uniform_star_optimum(self):
        instance = uniform_star(3, 2)
        best = brute_force_insp(instance)
        assert instance.realization_cost(best) == 3

    def test_skewed_star_optima(self):
        assert star_332().realization_cost(brute_force_insp(star_332())) == 4
        heavy = star_instance({("a", "b"): 3, ("a", "c"): 3, ("b", "c"): 3})
        assert heavy.realization_cost(brute_force_insp(heavy)) == 5

    def test_trivial_instances(self):
        empty = star_instance({("a", "b"): 0, ("a", "c"): 0, ("b", "c"): 0})
        assert brute_force_insp(empty) == Realization({})

    def test_terminal_guard(self):
        with pytest.raises(TooLarge):
            brute_force_insp(uniform_star(6, 2))

    def test_a_flow_audit_against_the_cut_screen_is_an_internal_error(self, monkeypatch):
        # the certificate raises, so `python -O` keeps it
        monkeypatch.setattr(verify, "verify_realization", lambda *_: [("a", "b", 1)])
        with pytest.raises(SolverInternalError, match=r"cut screen and flow check disagree: \[\('a', 'b', 1\)\]"):
            brute_force_insp(uniform_star(3, 2))

    def test_result_is_always_flow_feasible(self):
        instance = star_instance(
            {("a", "b"): 4, ("a", "c"): 2, ("b", "c"): 3}, length="2"
        )
        best = brute_force_insp(instance)
        assert verify_realization(instance, best) == []


@settings(max_examples=25, deadline=None)
@given(solvable_instances(max_terminals=4, max_inner=2, rmax=4))
def test_brute_force_cost_never_beats_the_lower_bound(instance):
    best = brute_force_insp(instance)
    cost = instance.realization_cost(best)
    assert cost >= fractional_lower_bound(instance)
    projected = capacity_projection(instance, best)
    assert projected.cost() == cost
    for e in instance.tree.edges:
        assert projected[e] >= instance.base_capacity()[e]


@settings(max_examples=25, deadline=None)
@given(solvable_instances(max_terminals=4, max_inner=2, rmax=4))
def test_projection_of_feasible_realizations_covers_every_cut(instance):
    best = brute_force_insp(instance)
    coverage = [
        v for v in verify_feasible_capacity(instance, capacity_projection(instance, best))
        if v[0] == "coverage"
    ]
    assert coverage == []
