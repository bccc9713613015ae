#!/usr/bin/env python3
"""Max-flow counts, parse and solve times of two source trees, side by side.

For each tree it solves the `treesynth gen --seed 1` ladder (30/10, 60/20,
100/40, 150/60, 500/170 terminals/inner nodes), the chain t0-s0...s(N-1)-t1
with unit lengths and r(t0, t1) = 3 at N = 1,000, 2,000 and 20,000, and the
steiner-split inputs of `bench/run.py` (seed 1, taken from that workload's
own set-up), counting max-flow runs by wrapping `splitoff.max_flow` and
`verify.max_flow`, the only names the solve and the audit call it by. The
chain runs no flow at all: its solve time is what split-off spends per
activation outside the flows. Every solve-path flow is a split-off flow: a check flow,
or the merged cut of a neighbor pair. On the flat-tree inputs of
`bench/run.py` (seed 1) it times `parse_instance` and `solve` apart,
milliseconds per operation, `json.loads` of the same texts, the decoder's
share of `parse_ms`, and `Instance.base_capacity`, part of `solve_ms`, on
a second parse of those texts, since an instance keeps its base. On the
audit-verify inputs of `bench/run.py` (seed 1) it counts max-flow runs per
`verify_realization`, over all inputs and apart for the intact (even index)
and the damaged (odd index) ones, and times it the same three ways,
milliseconds per operation; the verdicts join the output digest. `flow_us`
is the mean time of one max-flow run, in microseconds, on the ladder,
steiner-split and audit-verify inputs.
`damaged_ladder` audits the 30/10 and 60/20 solutions once per pair of
positive length, with one unit taken off that pair, and totals the audit
flows and the violations found. `audit_chain` audits the flat chain of
AUDIT_CHAIN terminals t0-t1-..., unit lengths and r = 2 on each consecutive
pair, against the realization that puts 1 on each of those pairs: every
forest flow falls short and every pair is a violation, the audit's worst
case. It reports the flows, the violations, the audit's time and, from a
second run under `tracemalloc`, its peak of traced memory in MB.
`audit_intact` audits two realizations that meet every requirement, the
500/170 solution and the same chain with 2 on each consecutive pair, where
every forest flow holds and runs into a held class that grows as the audit
goes (see `verify_realization`); it reports their flows and `verify_s`.
`steiner_split.solve_p50_ms` is the median solve again, in milliseconds
with 3 decimals, since `solve_p50_s` rounds about 1 ms to 4.

A fixed corpus of CORPUS small `gen` instances (6-24 terminals, a third as
many inner nodes, rmax 3, 6 or 9) reaches the probe outcomes the ladder
does not. For the ladder and the corpus it sums the probe outcomes that
split-off records per activation (`SplitState.outcomes`, counted where
`admissible_amount` settles each pair): `degree_admitted` pairs split whole
by their incident capacities with no flow, `cut_refused` pairs whose merged
cut refuses an amount those capacities allow, and `passed` and
`flow_refused` check rounds by their answer. A tree that records no
outcomes tallies zero.

The output digest covers each solved instance's `cli.instance_hash` and its
realization, cost and split trace.

Every time (a key ending in `_s`, `_ms` or `_us`) is scaled to a fixed host
speed with the calibration kernel of `bench/run.py`. A single solve (ladder,
chain, steiner-split, corpus) runs the kernel just before and just after it,
and its wall time, and every flow time inside it, is multiplied by
`CALIBRATION_REF_S` over the mean of the two kernel times. The flat-tree and
audit-verify blocks run their operations through `bench.Loop`, which runs the
kernel after every operation, and each operation is scaled by the factor its
`scaled_times` gives it, the flow time inside it too; a block's time is the
sum over its operations.

Each tree is measured in ROUNDS processes, alternating before and after and
which of them goes first, so the host's speed drift lands on both sides.
Counts and digests must agree between the rounds of a side; every time and
memory peak (a key ending in `_mb`) is reported as the median and min-max
spread over the rounds. Outputs of the
two trees must agree byte for byte or the script exits 1.

    python3 scripts/perf_ladder.py --before /path/to/old/src > BENCH.json
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
LADDER = ((30, 10), (60, 20), (100, 40), (150, 60), (500, 170))
CHAIN = (1000, 2000, 20000)
AUDIT_CHAIN = 1500
CORPUS = 300
ROUNDS = 5


def load_bench():
    """bench/run.py as a module, bound to the treesynth already imported.

    run.py puts this checkout's src first on sys.path, but `treesynth` is
    already in sys.modules by then, so its imports resolve to the tree under
    measurement.
    """
    sys.path.insert(0, BENCH)
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def chain_document(n):
    """INSP-JSON of the chain t0-s0-...-s(n-1)-t1, unit lengths, r(t0, t1) = 3."""
    path = ["t0"] + [f"s{i}" for i in range(n)] + ["t1"]
    return {
        "version": "insp-json-v1",
        "terminals": ["t0", "t1"],
        "tree": {
            "nodes": path,
            "edges": [{"u": u, "v": v, "length": 1} for u, v in zip(path, path[1:])],
        },
        "requirements": [{"s": "t0", "t": "t1", "r": 3}],
    }


def audit_chain_document(n):
    """INSP-JSON of the flat chain t0-t1-...-t(n-1), unit lengths, r = 2 on
    each consecutive pair."""
    names = [f"t{i}" for i in range(n)]
    pairs = list(zip(names, names[1:]))
    return {
        "version": "insp-json-v1",
        "terminals": names,
        "tree": {"nodes": names, "edges": [{"u": u, "v": v, "length": 1} for u, v in pairs]},
        "requirements": [{"s": u, "t": v, "r": 2} for u, v in pairs],
    }


def corpus_documents(generate_document):
    for seed in range(CORPUS):
        k = 6 + seed % 19
        yield generate_document(k, k // 3, 2, (3, 6, 9)[seed % 3], seed)


def tally_probes(splitoff):
    """Sum the probe outcomes each activation records in `state.outcomes`,
    by wrapping `splitoff.split_node`; a tree that records none tallies 0."""
    tally = dict.fromkeys(("cut_refused", "degree_admitted", "flow_refused", "passed"), 0)
    split_node = splitoff.split_node

    def counted(state):
        split_node(state)
        for key, n in getattr(state, "outcomes", {}).items():
            tally[key] += n

    splitoff.split_node = counted
    return tally


def audit_intact(treesynth, rung, chain_size, timed, flows):
    """The `audit_intact` block: audits of two realizations that meet every
    requirement, so that every forest flow holds. One is the solution of the
    `treesynth gen --seed 1` rung (terminals, inner), the other the flat chain
    of `audit_chain_document(chain_size)` with 2 on each consecutive pair. For
    each it reports the audit's flows, read off the running count `flows()`,
    and its time as `timed` gives it; a violation raises RuntimeError.
    """
    k, m = rung
    ladder = treesynth.parse_instance(json.dumps(treesynth.generate_document(k, m, 2, 6, 1)))
    chain = treesynth.parse_instance(json.dumps(audit_chain_document(chain_size)))
    names = chain.terminals
    cases = (
        (f"ladder_{k}x{m}", ladder, treesynth.solve(ladder).realization),
        (f"chain_{chain_size}", chain, treesynth.Realization({(u, v): 2 for u, v in zip(names, names[1:])})),
    )
    block = {}
    for key, instance, realization in cases:
        start = flows()
        verdict, seconds, _ = timed(lambda: treesynth.verify_realization(instance, realization))
        if verdict:
            raise RuntimeError(f"the intact {key} audit found {len(verdict)} violations")
        block[key] = {"flows": flows() - start, "verify_s": round(seconds, 4)}
    return block


def calibrated(bench, operation, inputs):
    """One `bench.Loop` round of `operation` over `inputs`: the outputs, and
    per operation its time at calibration speed and the factor that scaled
    it, for a time taken inside it."""
    outputs = []

    def keep(i, output):
        outputs.append(output)
        return []  # no problems: the digest checks the outputs

    loop = bench.Loop(types.SimpleNamespace(operation=operation, check=keep), inputs)
    loop.round()
    if loop.failed:
        raise RuntimeError(f"{loop.failed} of {len(inputs)} operations failed")
    seconds = loop.scaled_times()
    return outputs, seconds, [t / wall for t, wall in zip(seconds, loop.times[False])]


def measure(src):
    """Counts, times and an output digest for the solver under `src`."""
    sys.path.insert(0, src)
    import treesynth
    from treesynth import Realization, generate_document, parse_instance, solve, splitoff, verify, verify_realization
    from treesynth.cli import instance_hash

    assert treesynth.__file__.startswith(os.path.join(src, "")), treesynth.__file__
    bench = load_bench()
    assert bench.cli.__file__.startswith(os.path.join(src, "")), bench.cli.__file__

    calls = [0]
    flow_s = [0.0]

    def counted(flow):
        def run(*args):
            calls[0] += 1
            start = time.perf_counter()
            result = flow(*args)
            flow_s[0] += time.perf_counter() - start
            return result

        return run

    def timed(block):
        """block()'s result, its time at calibration speed, and the factor that
        scales a time taken inside it the same way."""
        before = bench.calibrate()
        start = time.perf_counter()
        result = block()
        seconds = time.perf_counter() - start
        scale = 2 * bench.CALIBRATION_REF_S / (before + bench.calibrate())
        return result, seconds * scale, scale

    def per_operation(operation, inputs):
        """`calibrated` over the inputs: the outputs, each operation's scaled
        time, and the flow time inside the block, each operation's by its own
        factor."""
        flows = []

        def run_one(item):
            before = flow_s[0]
            result = operation(item)
            flows.append(flow_s[0] - before)
            return result

        outputs, seconds, factors = calibrated(bench, run_one, inputs)
        return outputs, seconds, sum(f * k for f, k in zip(flows, factors))

    def ms_per_op(seconds, digits):
        """Mean milliseconds per operation."""
        return round(statistics.mean(seconds) * 1000, digits)

    def flow_us(seconds, n):
        """Mean microseconds per max-flow run."""
        return round(seconds * 1e6 / max(n, 1), 2)

    splitoff.max_flow = counted(splitoff.max_flow)
    verify.max_flow = counted(verify.max_flow)
    tally = tally_probes(splitoff)
    digest = hashlib.sha256()

    def record(instance, solution):
        blob = (instance_hash(instance), sorted(solution.realization.items()), str(solution.cost), solution.trace)
        digest.update(repr(blob).encode())

    def solve_text(text):
        instance = parse_instance(text)
        return instance, solve(instance)

    def run(text):
        calls[0], flow_s[0] = 0, 0.0
        (instance, solution), seconds, scale = timed(lambda: solve_text(text))
        record(instance, solution)
        return calls[0], seconds, flow_s[0] * scale

    ladder = {}
    for k, m in LADDER:
        n, t, f = run(json.dumps(generate_document(k, m, 2, 6, 1)))
        ladder[f"{k}x{m}"] = {"flows": n, "solve_s": round(t, 3), "flow_us": flow_us(f, n)}
    ladder["probes"] = dict(tally)
    chain = {}
    for size in CHAIN:
        n, t, _ = run(json.dumps(chain_document(size)))
        chain[str(size)] = {"flows": n, "solve_s": round(t, 3)}
    docs = [text for _, text in bench.WORKLOADS["steiner-split"]().setup(1)]
    flows, times, split_flow_s = [], [], 0.0
    for text in docs:
        n, t, f = run(text)
        flows.append(n)
        times.append(t)
        split_flow_s += f
    flat = [text for _, text in bench.WORKLOADS["flat-tree"]().setup(1)]
    _, decode_s, _ = per_operation(json.loads, flat)
    instances, parse_s, _ = per_operation(parse_instance, flat)
    solutions, solve_s, _ = per_operation(solve, instances)
    for instance, solution in zip(instances, solutions):
        record(instance, solution)
    # freed here, so that no timing covers their release
    del instances, solutions
    instances = [parse_instance(text) for text in flat]
    _, base_s, _ = per_operation(lambda instance: instance.base_capacity(), instances)
    del instances
    audits = [(item[1], item[2]) for item in bench.WORKLOADS["audit-verify"]().setup(1)]
    calls[0] = 0
    audit_calls = []

    def audit(item):
        verdict = verify_realization(*item)
        audit_calls.append(calls[0])
        return verdict

    verdicts, audit_s, audit_flow_s = per_operation(audit, audits)
    digest.update(repr(verdicts).encode())
    # the running totals as one count per audit; intact inputs at even indices
    audit_calls = [b - a for a, b in zip([0] + audit_calls, audit_calls)]
    damaged_ladder = {}
    for k, m in LADDER[:2]:
        instance = parse_instance(json.dumps(generate_document(k, m, 2, 6, 1)))
        values = dict(solve(instance).realization.items())
        calls[0], violations = 0, 0
        for pair in sorted(p for p in values if instance.tree.distance(*p) > 0):
            damaged = dict(values)
            damaged[pair] -= 1
            violations += len(verify_realization(instance, Realization(damaged)))
        damaged_ladder[f"{k}x{m}"] = {"audit_flows": calls[0], "violations": violations}
    chain_instance = parse_instance(json.dumps(audit_chain_document(AUDIT_CHAIN)))
    names = chain_instance.terminals
    ones = Realization({(u, v): 1 for u, v in zip(names, names[1:])})
    calls[0] = 0
    _, chain_s, _ = timed(lambda: verify_realization(chain_instance, ones))
    chain_flows = calls[0]
    tracemalloc.start()
    chain_violations = len(verify_realization(chain_instance, ones))
    chain_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    intact = audit_intact(treesynth, LADDER[-1], AUDIT_CHAIN, timed, lambda: calls[0])
    tally.update(dict.fromkeys(tally, 0))
    corpus_calls = 0
    for doc in corpus_documents(generate_document):
        corpus_calls += run(json.dumps(doc))[0]
    return {
        "ladder": ladder,
        "chain": chain,
        "steiner_split": {
            "operations": len(docs),
            "flows_per_op": round(sum(flows) / len(docs), 1),
            "solve_p50_s": round(statistics.median(times), 4),
            "solve_p50_ms": round(statistics.median(times) * 1000, 3),
            "flow_us": flow_us(split_flow_s, sum(flows)),
        },
        "flat_tree": {
            "operations": len(flat),
            "json_loads_ms": ms_per_op(decode_s, 2),
            "parse_ms": ms_per_op(parse_s, 2),
            "solve_ms": ms_per_op(solve_s, 2),
            "base_capacity_ms": ms_per_op(base_s, 2),
        },
        "audit_verify": {
            "operations": len(audits),
            "flows_per_op": round(sum(audit_calls) / len(audits), 1),
            "intact_flows_per_op": round(statistics.mean(audit_calls[0::2]), 1),
            "damaged_flows_per_op": round(statistics.mean(audit_calls[1::2]), 1),
            "verify_ms": ms_per_op(audit_s, 3),
            "intact_verify_ms": ms_per_op(audit_s[0::2], 3),
            "damaged_verify_ms": ms_per_op(audit_s[1::2], 3),
            "flow_us": flow_us(audit_flow_s, sum(audit_calls)),
        },
        "damaged_ladder": damaged_ladder,
        "audit_chain": {
            "terminals": AUDIT_CHAIN,
            "flows": chain_flows,
            "violations": chain_violations,
            "verify_s": round(chain_s, 3),
            "peak_mb": round(chain_peak / 1e6, 1),
        },
        "audit_intact": intact,
        "corpus": {"instances": CORPUS, "flows": corpus_calls, "probes": dict(tally)},
        "output_sha256": digest.hexdigest(),
    }


def merge(rounds, where="result"):
    """One side's rounds: counts must agree, times become median and spread."""
    first = rounds[0]
    if isinstance(first, dict):
        return {key: merge([r[key] for r in rounds], key) for key in first}
    if where.endswith(("_s", "_ms", "_us", "_mb")):
        return {"median": statistics.median(rounds), "min": min(rounds), "max": max(rounds)}
    if any(r != first for r in rounds):
        raise ValueError(f"{where} differs between rounds of one tree: {rounds}")
    return first


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="src directory of the baseline tree")
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if not args.before:
        parser.error("--before is required")

    result = {
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "rounds": ROUNDS,
    }
    rounds = {"before": [], "after": []}
    trees = (("before", args.before), ("after", SRC))
    for i in range(ROUNDS):
        # each side goes first in every other round
        for name, src in trees[:: 1 if i % 2 == 0 else -1]:
            out = subprocess.run(
                [sys.executable, __file__, "--measure", os.path.abspath(src)],
                check=True, capture_output=True, text=True,
            ).stdout
            rounds[name].append(json.loads(out))
    try:
        for name, runs in rounds.items():
            result[name] = merge(runs)
    except ValueError as exc:
        print(f"perf_ladder: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2))
    if result["before"]["output_sha256"] != result["after"]["output_sha256"]:
        print("perf_ladder: outputs differ between the two trees", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
