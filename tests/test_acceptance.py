"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints (and logs for the terminal summary) a single line of the
form "PASS criterion N: ..." or "FAIL criterion N: ...". All comparisons are
exact rational arithmetic; the only tolerances are the stated wall-clock
ceilings.
"""

import json
import random
import time
from fractions import Fraction
from itertools import groupby

import pytest

from treesynth import (
    brute_force_insp,
    fractional_lower_bound,
    generate_document,
    min_cost_ij_join,
    parse_instance,
    solve,
    verify_realization,
)
from treesynth.cli import run
from treesynth.join import ParityInstance, parity_sets, satisfies_parity
from treesynth.maxflow import CapacitatedMultigraph, all_pairs_connectivity
from treesynth.model import MetricTree, node_pair
from treesynth.splitoff import connectivity_snapshot
from treesynth.verify import verify_feasible_capacity

from helpers import (
    add_capacity,
    brute_force_join,
    capacity_projection,
    fixture_path,
    forest_bottleneck,
    name_flow,
    named_checks,
    star_instance,
    tree_joins,
    tree_path,
    uniform_integer_formula,
    uniform_star,
)

LENGTH_POOL = ("0", "1/2", "1", "2", "7/3")


def _report(log, num, description, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    log.append(line)
    print(line)
    assert ok, line


def _generated(seed, terminals, inner, rmin, rmax):
    doc = generate_document(
        terminals=terminals,
        inner=inner,
        rmin=rmin,
        rmax=rmax,
        seed=seed,
        lengths=LENGTH_POOL,
    )
    return parse_instance(json.dumps(doc))


@pytest.fixture(scope="module")
def corpus():
    """500 solved instances shared by criteria 1, 2, 6, 7, and 9."""
    runs = []
    start = time.perf_counter()
    for i in range(500):
        rng = random.Random(10_000 + i)
        instance = _generated(
            seed=i,
            terminals=rng.randint(3, 10),
            inner=rng.randint(0, 5),
            rmin=2,
            rmax=6,
        )
        runs.append((instance, solve(instance)))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def _potential(tree, graph):
    return sum(tree.distance(u, v) * c for (u, v), c in graph.positive_pairs())


def _apply(graph, s, u, w, amount):
    add_capacity(graph, s, u, -amount)
    add_capacity(graph, s, w, -amount)
    add_capacity(graph, u, w, amount)


def _flow_snapshot(graph, node):
    """Max-flow connectivity among the positive-degree nodes other than node."""
    keep = {v for v in graph.nodes if v != node and graph.degree(v) > 0}
    lam = all_pairs_connectivity(graph)
    return {(x, y): c for (x, y), c in lam.items() if x in keep and y in keep}


def _replay(instance, solution, check_demands):
    """Re-run the recorded splits and check every stated invariant.

    With check_demands, each activation's demands are recomputed by max-flow
    on the current graph, compared with the least capacity on the tree path
    of each pair and with the solver's own checks (each check's weight, and
    the check forest's bottleneck for every pair), and checked after every
    split.
    """
    tree = instance.tree
    graph = CapacitatedMultigraph(tree.nodes, solution.capacity)
    joins = tree_joins(graph)
    out = {
        "start": _potential(tree, graph) == solution.capacity.cost(),
        "monotone": True,
        "even": True,
        "demands": True,
        "steps": 0,
        "checked_demands": check_demands,
        "snapshot_pairs": 0,
        "bottleneck_mismatches": 0,
        "solver_checks": 0,
        "check_mismatches": 0,
    }
    for node, events in groupby(solution.trace, key=lambda e: e[0]):
        demands = _flow_snapshot(graph, node) if check_demands else {}
        for (x, y), d in demands.items():
            out["snapshot_pairs"] += 1
            if d != min(solution.capacity[e] for e in tree_path(tree, x, y)):
                out["bottleneck_mismatches"] += 1
        if check_demands:
            checks = named_checks(graph, connectivity_snapshot(graph, node, joins))
            out["solver_checks"] += len(checks)
            for x, y, w in checks:
                if demands.get(node_pair(x, y)) != w:
                    out["check_mismatches"] += 1
            for (x, y), d in demands.items():
                if forest_bottleneck(checks, x, y) < d:
                    out["check_mismatches"] += 1
        for _, u, w, amount in events:
            out["steps"] += 1
            if graph.degree(node) % 2:
                out["even"] = False
            before = _potential(tree, graph)
            _apply(graph, node, u, w, amount)
            if _potential(tree, graph) > before:
                out["monotone"] = False
            if graph.degree(node) % 2:
                out["even"] = False
            for (x, y), d in demands.items():
                if name_flow(graph, (x,), {y})[0] < d:
                    out["demands"] = False
        if graph.degree(node) != 0:
            out["even"] = False
    out["end"] = _potential(tree, graph) == instance.realization_cost(
        solution.realization
    )
    return out


@pytest.fixture(scope="module")
def replayed(corpus):
    runs, _ = corpus
    return [
        _replay(instance, solution, check_demands=len(instance.tree.nodes) <= 8)
        for instance, solution in runs
    ]


def test_criterion_01_closed_form_cost(corpus, acceptance_log):
    runs, elapsed = corpus
    mismatches = 0
    for instance, solution in runs:
        join = min_cost_ij_join(parity_sets(instance, instance.base_capacity()))
        expected = fractional_lower_bound(instance) + join.cost
        if solution.cost != expected:
            mismatches += 1
    ok = mismatches == 0 and elapsed < 30
    _report(
        acceptance_log,
        1,
        "solve cost equals cut-requirement total plus minimum parity join",
        ok,
        f"{len(runs)} instances, {mismatches} mismatches, {elapsed:.1f}s < 30s",
    )


def test_criterion_02_flow_feasibility(corpus, acceptance_log):
    runs, _ = corpus
    bad = sum(
        1 for instance, solution in runs if verify_realization(instance, solution.realization)
    )
    _report(
        acceptance_log,
        2,
        "every produced realization meets all requirements under max-flow",
        bad == 0,
        f"{len(runs) - bad}/{len(runs)} feasible",
    )


def test_criterion_03_brute_force_optimality(acceptance_log):
    start = time.perf_counter()
    mismatches = 0
    for i in range(100):
        rng = random.Random(3_000 + i)
        terminals = rng.randint(2, 4)
        instance = _generated(
            seed=i,
            terminals=terminals,
            inner=rng.randint(0, 6 - terminals),
            rmin=2,
            rmax=3,
        )
        assert len(instance.tree.nodes) <= 6
        expected = instance.realization_cost(brute_force_insp(instance))
        if solve(instance).cost != expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        acceptance_log,
        3,
        "solve matches the exhaustive optimum on small instances",
        mismatches == 0 and elapsed < 120,
        f"100 instances, {mismatches} mismatches, {elapsed:.1f}s < 120s",
    )


def test_criterion_04_half_length_stars(acceptance_log):
    mismatches = 0
    odd_draws = 0
    for i in range(50):
        rng = random.Random(4_000 + i)
        terminals = [f"t{k}" for k in range(rng.randint(3, 6))]
        rmap = {}
        for a in range(len(terminals)):
            for b in range(a + 1, len(terminals)):
                rmap[(terminals[a], terminals[b])] = rng.randint(2, 6)
        instance = star_instance(rmap, length="1/2")
        maxima = [
            max(r for pair, r in rmap.items() if t in pair) for t in terminals
        ]
        if sum(maxima) % 2:
            odd_draws += 1
        if solve(instance).cost != uniform_integer_formula(maxima):
            mismatches += 1
    # odd requirement total: the parity fix is exactly one half-length spoke
    odd_case = solve(uniform_star(3, 3))
    odd_ok = (
        odd_case.cost == 5
        and len(odd_case.join.edges) == 1
        and odd_case.join.cost == Fraction(1, 2)
    )
    _report(
        acceptance_log,
        4,
        "half-length stars cost the rounded-up half sum of terminal maxima",
        mismatches == 0 and odd_ok,
        f"50 draws ({odd_draws} odd), {mismatches} mismatches, odd case join: "
        f"{len(odd_case.join.edges)} edge at {odd_case.join.cost}",
    )


def test_criterion_05_join_oracle(acceptance_log):
    disagreements = 0
    feasible = 0
    for i in range(200):
        rng = random.Random(5_000 + i)
        n = rng.randint(1, 11)
        names = [f"n{k}" for k in range(n)]
        edges = [
            (names[rng.randrange(j)], names[j], rng.choice(LENGTH_POOL))
            for j in range(1, n)
        ]
        tree = MetricTree(names, edges, names[0])
        marks = [rng.choice("eof") for _ in names]
        even = frozenset(v for v, m in zip(names, marks) if m == "e")
        odd = frozenset(v for v, m in zip(names, marks) if m == "o")
        p = ParityInstance(tree, even, odd)
        fast = min_cost_ij_join(p)
        slow = brute_force_join(p)
        if (fast is None) != (slow is None):
            disagreements += 1
            continue
        if fast is None:
            continue
        feasible += 1
        if fast.cost != slow.cost:
            disagreements += 1
        elif not (
            satisfies_parity(even, odd, fast.edges)
            and satisfies_parity(even, odd, slow.edges)
        ):
            disagreements += 1
    _report(
        acceptance_log,
        5,
        "tree parity join matches the exhaustive reference",
        disagreements == 0,
        f"200 trees ({feasible} feasible), {disagreements} disagreements",
    )


def test_criterion_06_split_invariants(corpus, replayed, acceptance_log):
    runs, _ = corpus
    bad_monotone = sum(1 for r in replayed if not r["monotone"])
    bad_even = sum(1 for r in replayed if not r["even"])
    bad_demands = sum(1 for r in replayed if not r["demands"])
    spot_checked = sum(1 for r in replayed if r["checked_demands"])
    steps = sum(r["steps"] for r in replayed)
    pairs = sum(r["snapshot_pairs"] for r in replayed)
    mismatches = sum(r["bottleneck_mismatches"] for r in replayed)
    checks = sum(r["solver_checks"] for r in replayed)
    check_mismatches = sum(r["check_mismatches"] for r in replayed)
    ok = (
        bad_monotone == 0
        and bad_even == 0
        and bad_demands == 0
        and mismatches == 0
        and check_mismatches == 0
    )
    _report(
        acceptance_log,
        6,
        "splits never raise the potential, keep degrees even, honor demands "
        "equal to tree-path bottlenecks and implied by the solver's checks",
        ok,
        f"{steps} splits over {len(runs)} runs, demands spot-checked by "
        f"max-flow on {spot_checked} small instances, {mismatches} of {pairs} "
        f"demands differ from the tree-path bottleneck, {check_mismatches} "
        f"mismatches between {checks} solver checks and the max-flow demands",
    )


def test_criterion_07_endpoint_identities(corpus, replayed, acceptance_log):
    runs, _ = corpus
    bad_start = sum(1 for r in replayed if not r["start"])
    bad_end = sum(1 for r in replayed if not r["end"])
    _report(
        acceptance_log,
        7,
        "potential equals capacity cost before splitting and realization cost after",
        bad_start == 0 and bad_end == 0,
        f"{len(runs)} runs, {bad_start} start / {bad_end} end mismatches",
    )


def test_criterion_08_zero_requirement_fixture(capsys, acceptance_log):
    instance_file = fixture_path("zero_bridge_triads.json")
    realization_file = fixture_path("zero_bridge_triads_realization.json")

    solve_code = run(["solve", instance_file])
    solve_err = capsys.readouterr().err
    named = "u-v" in solve_err and "cut requirement 0" in solve_err

    verify_code = run(["verify", instance_file, realization_file])
    verify_out = capsys.readouterr().out
    verified = json.loads(verify_out)

    bound_code = run(["bound", instance_file])
    bound_out = capsys.readouterr().out
    bound = json.loads(bound_out)

    with open(instance_file) as fh:
        instance = parse_instance(fh.read())
    join = min_cost_ij_join(parity_sets(instance, instance.base_capacity()))
    gap_holds = Fraction(39) > Fraction(36) + join.cost

    ok = (
        solve_code == 2
        and named
        and verify_code == 0
        and verified == {"status": "ok", "cost": 39}
        and bound_code == 0
        and bound["fractional_lower_bound"] == 36
        and bound["integer_cost_formula"] is None
        and gap_holds
    )
    _report(
        acceptance_log,
        8,
        "zero-requirement bridge: refusal, hand-built cost 39, bound 36",
        ok,
        f"exit {solve_code}, verified cost {verified.get('cost')}, bound "
        f"{bound.get('fractional_lower_bound')}, 39 > 36 + {join.cost}",
    )


def test_criterion_09_projection_round_trip(corpus, acceptance_log):
    runs, _ = corpus
    infeasible = 0
    cost_drift = 0
    for instance, solution in runs:
        projected = capacity_projection(instance, solution.realization)
        if verify_feasible_capacity(instance, projected):
            infeasible += 1
        if projected.cost() != instance.realization_cost(solution.realization):
            cost_drift += 1
    _report(
        acceptance_log,
        9,
        "projecting each realization back to tree loads stays feasible at equal cost",
        infeasible == 0 and cost_drift == 0,
        f"{len(runs)} runs, {infeasible} infeasible, {cost_drift} cost drifts",
    )


def _scale_ceiling(acceptance_log, terminals, inner):
    instance = _generated(seed=424242, terminals=terminals, inner=inner, rmin=2, rmax=10)
    start = time.perf_counter()
    solution = solve(instance)
    elapsed = time.perf_counter() - start
    feasible = verify_realization(instance, solution.realization) == []
    _report(
        acceptance_log,
        10,
        f"a {terminals}-terminal, {inner}-inner-node instance solves inside the ceiling",
        elapsed < 60 and feasible,
        f"{elapsed:.1f}s < 60s, cost {solution.cost}, "
        f"{len(solution.trace)} splits, feasible={feasible}",
    )


def test_criterion_10_scale_ceiling(acceptance_log):
    _scale_ceiling(acceptance_log, terminals=30, inner=10)


def test_criterion_10_deeper_scale_ceiling(acceptance_log):
    _scale_ceiling(acceptance_log, terminals=60, inner=20)
