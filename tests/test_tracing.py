"""The benchmark's per-layer tracer still binds to the program's entry points.

`bench/tracing.py` rebinds names in `treesynth` modules by attribute; renaming
one of them breaks `bench/run.py --trace 1`, so this test imports the tracer
as the benchmark does and runs a traced solve and audit.
"""

import importlib.util
import json
import os

from treesynth import cli, maxflow, model, solver, splitoff, verify

from helpers import fixture_path

BENCH_TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py"
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_restores():
    targets = [
        (cli, "parse_instance"),
        (solver, "solve"),
        (model.Instance, "cut_requirement"),
        (splitoff, "max_flow"),
        (verify, "verify_realization"),
    ]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = load_tracing().Tracer()
    with open(fixture_path("half_star.json")) as fh:
        text = fh.read()
    with tracer.installed():
        instance = cli.parse_instance(text)
        solution = solver.solve(instance)
        violations = verify.verify_realization(instance, solution.realization)
    assert violations == []
    assert [getattr(owner, attr) for owner, attr in targets] == originals
    for name in ("cli.parse", "solver.solve", "model.base_capacity", "join.parity_join",
                 "splitoff.realize", "verify.audit"):
        assert tracer.calls[name] >= 1, name
    assert tracer.counts["splitoff.activations"] >= 1
    assert tracer.counts["maxflow.runs"] >= 1


def test_flow_count_matches_augment_calls(monkeypatch):
    # every max-flow run of a traced solve and audit shows in maxflow.runs
    calls = []
    augment = maxflow._augment

    def counted(*args):
        calls.append(args)
        return augment(*args)

    monkeypatch.setattr(maxflow, "_augment", counted)
    doc = cli.generate_document(12, 4, 2, 6, 1)
    tracer = load_tracing().Tracer()
    with tracer.installed():
        instance = cli.parse_instance(json.dumps(doc))
        solution = solver.solve(instance)
        assert verify.verify_realization(instance, solution.realization) == []
    assert solution.trace
    assert tracer.counts["maxflow.runs"] == len(calls) > 0


def test_a_traced_all_pairs_run_counts_its_flows(monkeypatch):
    # the all-pairs hook reads len(graph.nodes): n - 1 max-flow runs, each an
    # `_augment` call of its own
    calls = []
    augment = maxflow._augment

    def counted(*args):
        calls.append(args)
        return augment(*args)

    monkeypatch.setattr(maxflow, "_augment", counted)
    graph = maxflow.CapacitatedMultigraph(5, {(0, 1): 2, (1, 2): 3, (2, 3): 1, (1, 4): 2})
    tracer = load_tracing().Tracer()
    with tracer.installed():
        lam = maxflow.all_pairs_connectivity(graph)
    assert tracer.counts["maxflow.runs"] == len(calls) == len(graph.nodes) - 1 == 4
    assert tracer.calls["maxflow.all_pairs"] == 1
    assert lam[(0, 3)] == 1 and lam[(2, 4)] == 2
