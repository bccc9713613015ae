#!/usr/bin/env python3
"""Max-flow counts, parse and solve times of two source trees, side by side.

For each tree it solves the `treesynth gen --seed 1` ladder (30/10, 60/20,
100/40, 150/60 terminals/inner nodes) and the steiner-split inputs of
`bench/run.py` (seed 1, taken from that workload's own set-up), counting
`_dinic` calls by wrapping `maxflow._dinic`. Every solve-path flow is a
split-off check flow, so the steiner-split count per operation is the check
flows per operation. Solve times are the median of REPEATS runs. On the
flat-tree inputs of `bench/run.py` (seed 1) it times `parse_instance` and
`solve` apart: milliseconds per operation, each the median of REPEATS rounds.
On the audit-verify inputs of `bench/run.py` (seed 1) it counts `_dinic`
calls per `verify_realization` and times it, milliseconds per operation as
the median of REPEATS rounds; the verdicts join the output digest. Each tree
is measured in its own process; outputs must agree byte for byte or the
script exits 1.

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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
LADDER = ((30, 10), (60, 20), (100, 40), (150, 60))
REPEATS = 3


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


def measure(src):
    """Counts, times and an output digest for the solver under `src`."""
    sys.path.insert(0, src)
    import treesynth
    from treesynth import generate_document, maxflow, parse_instance, solve, verify_realization

    assert treesynth.__file__.startswith(os.path.join(src, "")), treesynth.__file__
    bench = load_bench()
    assert bench.cli.__file__.startswith(os.path.join(src, "")), bench.cli.__file__

    calls = [0]
    dinic = maxflow._dinic

    def counted(*args):
        calls[0] += 1
        return dinic(*args)

    maxflow._dinic = counted
    digest = hashlib.sha256()

    def record(solution):
        blob = repr((sorted(solution.realization.items()), str(solution.cost), solution.trace))
        digest.update(blob.encode())

    def run(text):
        calls[0] = 0
        start = time.perf_counter()
        solution = solve(parse_instance(text))
        elapsed = time.perf_counter() - start
        record(solution)
        return calls[0], elapsed

    ladder = {}
    for k, m in LADDER:
        text = json.dumps(generate_document(k, m, 2, 6, 1))
        runs = [run(text) for _ in range(REPEATS)]
        ladder[f"{k}x{m}"] = {
            "dinic_calls": runs[0][0],
            "solve_s_median": round(statistics.median(t for _, t in runs), 3),
        }
    docs = [text for _, text in bench.WORKLOADS["steiner-split"]().setup(1)]
    flows, times = [], []
    for text in docs:
        n, t = run(text)
        flows.append(n)
        times.append(t)
    flat = [text for _, text in bench.WORKLOADS["flat-tree"]().setup(1)]
    parse_ms, solve_ms = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        instances = [parse_instance(text) for text in flat]
        parsed = time.perf_counter()
        solutions = [solve(instance) for instance in instances]
        solved = time.perf_counter()
        parse_ms.append((parsed - start) * 1000 / len(flat))
        solve_ms.append((solved - parsed) * 1000 / len(flat))
        for solution in solutions:
            record(solution)
        # freed here, so that no round times the release of the last one
        del instances, solutions
    audits = [(item[1], item[2]) for item in bench.WORKLOADS["audit-verify"]().setup(1)]
    audit_ms = []
    for _ in range(REPEATS):
        calls[0] = 0
        start = time.perf_counter()
        verdicts = [verify_realization(instance, realization) for instance, realization in audits]
        audit_ms.append((time.perf_counter() - start) * 1000 / len(audits))
    digest.update(repr(verdicts).encode())
    return {
        "ladder": ladder,
        "steiner_split": {
            "operations": len(docs),
            "check_flows_per_op": round(sum(flows) / len(docs), 1),
            "solve_s_p50": round(statistics.median(times), 4),
        },
        "flat_tree": {
            "operations": len(flat),
            "parse_ms_median": round(statistics.median(parse_ms), 2),
            "solve_ms_median": round(statistics.median(solve_ms), 2),
        },
        "audit_verify": {
            "operations": len(audits),
            "dinic_calls_per_op": round(calls[0] / len(audits), 1),
            "verify_ms_median": round(statistics.median(audit_ms), 3),
        },
        "output_sha256": digest.hexdigest(),
    }


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
        "repeats": REPEATS,
    }
    for name, src in (("before", args.before), ("after", SRC)):
        out = subprocess.run(
            [sys.executable, __file__, "--measure", os.path.abspath(src)],
            check=True, capture_output=True, text=True,
        ).stdout
        result[name] = json.loads(out)
    print(json.dumps(result, indent=2))
    if result["before"]["output_sha256"] != result["after"]["output_sha256"]:
        print("perf_ladder: outputs differ between the two trees", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
