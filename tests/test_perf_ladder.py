"""The perf ladder's probe tally reads what split-off records.

`scripts/perf_ladder.py` wraps `splitoff.split_node` and sums the probe
outcomes each activation records in `SplitState.outcomes`; renaming either
breaks the script's tallies, so this test loads the script and tallies one
small solve. It recounts, apart from split-off's record, the pairs the
degree rule admits whole with no flow, the pairs the merged cut refuses,
from that cut stated in names, and the check rounds, and pins that a tree
recording no outcomes tallies zero, that the script's per-operation
timing runs through the benchmark's loop, that its audit chain is the
audit's worst case: every forest flow short and every pair a violation, and
the shape of its `audit_intact` block.
"""

import importlib.util
import json
import os
import sys
import types

import pytest

import treesynth
from treesynth import Realization, cli, solver, splitoff, verify

from helpers import named_checks, set_flow

PERF_LADDER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "perf_ladder.py"
)
# the split-off names the tally test rebinds, its own and the script's
NAMES = ("admissible_amount", "_demands_hold", "split_node")


def load_perf_ladder():
    spec = importlib.util.spec_from_file_location("perf_ladder", PERF_LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tally_counts_the_probes_of_a_solve():
    originals = {name: getattr(splitoff, name) for name in NAMES}
    text = json.dumps(cli.generate_document(12, 4, 2, 6, 1))
    untallied = solver.solve(cli.parse_instance(text))
    # split-off numbers the tree's nodes in sorted-name order
    names = sorted(cli.parse_instance(text).tree.nodes)
    probes, holds, whole, refused = [], [], [], []

    def counted_amount(state, u, w):
        probes.append((u, w))
        graph, s = state.graph, state.active
        zu, zw = graph.capacity(s, u), graph.capacity(s, w)
        if min(zu, zw) <= zu + zw - graph.degree(s) // 2:
            whole.append((u, w))
        else:
            # the merged cut again, stated in names
            mu, side = set_flow(graph, (u, w), {s})
            side = {names[x] for x in side}
            demands = named_checks(names, state.demands)
            crossing = max((r for x, y, r in demands if (x in side) != (y in side)), default=0)
            if (mu - crossing) // 2 < min(zu, zw):
                refused.append((u, w))
        return originals["admissible_amount"](state, u, w)

    def counted_hold(state, safe, *split):
        holds.append(safe)
        return originals["_demands_hold"](state, safe, *split)

    try:
        # the tally wraps split_node, which calls these counters: both see the same probes
        splitoff.admissible_amount, splitoff._demands_hold = counted_amount, counted_hold
        tally = load_perf_ladder().tally_probes(splitoff)
        solution = solver.solve(cli.parse_instance(text))
    finally:
        for name, original in originals.items():
            setattr(splitoff, name, original)
    assert solution.trace == untallied.trace
    assert set(tally) == {"cut_refused", "degree_admitted", "flow_refused", "passed"}
    assert tally["degree_admitted"] == len(whole) > 0
    assert tally["passed"] > 0
    assert tally["passed"] + tally["flow_refused"] == len(holds)
    assert tally["cut_refused"] == len(refused) > 0
    assert tally["cut_refused"] <= len(probes)


def test_a_tree_that_records_no_outcomes_tallies_zero():
    tree = types.SimpleNamespace(split_node=lambda state: None)
    tally = load_perf_ladder().tally_probes(tree)
    tree.split_node(object())
    assert tally == {"cut_refused": 0, "degree_admitted": 0, "flow_refused": 0, "passed": 0}


def test_calibrated_scales_each_operation(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    perf_ladder = load_perf_ladder()
    bench = perf_ladder.load_bench()
    outputs, seconds, factors = perf_ladder.calibrated(bench, lambda x: 2 * x, [1, 2, 3])
    assert outputs == [2, 4, 6]
    assert len(seconds) == len(factors) == 3
    assert all(t > 0 for t in seconds) and all(f > 0 for f in factors)
    with pytest.raises(RuntimeError, match="1 of 2 operations failed"):
        perf_ladder.calibrated(bench, lambda x: 1 // x, [0, 1])


def test_audit_chain_leaves_every_forest_flow_short():
    # r = 2 on each consecutive pair against 1 unit on each: every forest
    # flow is 1, and every pair is a violation of 1
    n = 12
    instance = cli.parse_instance(json.dumps(load_perf_ladder().audit_chain_document(n)))
    names = instance.terminals
    ones = Realization({(u, v): 1 for u, v in zip(names, names[1:])})
    flows = []
    real = verify.max_flow

    def counted(*args):
        result = real(*args)
        flows.append(result[0])
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "max_flow", counted)
        violations = verify.verify_realization(instance, ones)
    assert flows == [1] * (n - 1)
    assert violations == sorted((*sorted(p), 1) for p in zip(names, names[1:]))


def test_audit_intact_runs_one_held_flow_per_forest_pair():
    flows = []
    real = verify.max_flow

    def counted(*args):
        result = real(*args)
        flows.append(result[0])
        return result

    def timed(block):
        return block(), 0.5, 1.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "max_flow", counted)
        block = load_perf_ladder().audit_intact(treesynth, (12, 4), 9, timed, flows.__len__)
    assert block == {
        "ladder_12x4": {"flows": 11, "verify_s": 0.5},
        "chain_9": {"flows": 8, "verify_s": 0.5},
    }
