"""treesynth benchmark: one workload in one process and one thread.

    python3 bench/run.py --workload steiner-split --seed 1 --seconds 30 --trace 0

A closed loop with one caller: each operation starts when the previous one
ends. The loop runs whole rounds over the workload's fixed input set until
`--seconds` have passed and at least MIN_OPS operations were made. Every
output is compared against the independent checks in `reference.py`; the
checks' own time is excluded from every metric.

Every end-to-end time is scaled to a fixed host speed: a calibration kernel is
timed after each operation and around each set-up repeat, and each time is
multiplied by CALIBRATION_REF_S over the kernel's time around it. Wall-clock
figures go to standard error.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates traced and
untraced rounds, prints the per-layer metrics and writes every span of the
first traced round, with per-layer totals, to bench/out/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")

MIN_OPS = 100  # so that at least ten samples lie beyond the p90 tail
TAIL = 0.9
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_SEGMENT_S = 0.05
# The calibration kernel's time on the reference machine in its fast state;
# every reported time is scaled to a host on which the kernel takes this long.
CALIBRATION_REF_S = 0.002
CALIBRATION_STEPS = 8_500
CALIBRATION_WINDOW = 5
LADDER = ((30, 10), (60, 20))  # `treesynth gen --seed 1 --rmin 2 --rmax 6`

if not os.path.isfile(os.path.join(SRC, "treesynth", "__init__.py")):
    sys.exit(f"bench: no treesynth sources under {SRC}")
sys.path.insert(0, SRC)

from treesynth import cli, model, solver, verify  # noqa: E402

import reference  # noqa: E402
import selftest  # noqa: E402
from tracing import OP, Tracer  # noqa: E402


def _documents(name, seed, sizes):
    """One generated document per (terminals, inner) size, seeded per workload."""
    rng = random.Random(f"{name}:{seed}")
    for k, m in sizes:
        yield cli.generate_document(k, m, 2, 6, rng.randrange(2**31))


class SolveWorkload:
    """Operation: parse_instance(text), then solve."""

    def __init__(self, name, sizes, flat=False):
        self.name = name
        self.sizes = sizes
        self.flat = flat
        self.refs = []
        self.verified = {}

    def setup(self, seed):
        for doc in _documents(self.name, seed, self.sizes):
            yield doc, json.dumps(doc)

    def prepare_checks(self, inputs):
        self.refs = [reference.Reference(doc) for doc, _ in inputs]
        return []

    @staticmethod
    def operation(item):
        return solver.solve(cli.parse_instance(item[1]))

    def check(self, i, solution):
        values = dict(solution.realization.items())
        if self.verified.get(i) == (values, solution.cost):
            return []
        problems = self.refs[i].check_solution(values, solution.cost, flat=self.flat)
        if not problems:
            self.verified.setdefault(i, (values, solution.cost))
        return problems


class AuditVerify:
    """Operation: verify_realization on a fixed solver realization.

    Inputs alternate between an instance's realization as solved and a copy
    with one unit removed from a pair of positive length, which must leave a
    deficit because the solved realization is a minimum-cost one.
    """

    name = "audit-verify"

    def __init__(self, sizes):
        self.sizes = sizes
        self.expected = []

    def setup(self, seed):
        rng = random.Random(f"{self.name}:damage:{seed}")
        for doc in _documents(self.name, seed, self.sizes):
            instance = cli.parse_instance(json.dumps(doc))
            solution = solver.solve(instance)
            values = dict(solution.realization.items())
            pairs = sorted(p for p in values if instance.tree.distance(*p) > 0)
            pair = rng.choice(pairs)
            damaged = dict(values)
            damaged[pair] -= 1
            yield doc, instance, solution.realization, solution.cost
            yield doc, instance, model.Realization(damaged), None

    def prepare_checks(self, inputs):
        """Expected verdicts from the reference flows; intact inputs must be optimal."""
        self.expected = []
        problems = []
        for doc, _, realization, cost in inputs:
            ref = reference.Reference(doc)
            values = dict(realization.items())
            if cost is not None:
                problems += ref.check_solution(values, cost)
            verdict = ref.deficits(values)
            if cost is None and not verdict:
                problems.append("a realization cheaper than the optimum meets every requirement")
            self.expected.append(verdict)
        return problems

    @staticmethod
    def operation(item):
        return verify.verify_realization(item[1], item[2])

    def check(self, i, verdict):
        return reference.check_verdict(verdict, self.expected[i])


WORKLOADS = {
    # split-off dominated: about one inner node per three terminals
    "steiner-split": lambda: SolveWorkload("steiner-split", [(k, k // 3) for k in range(12, 20) for _ in range(16)]),
    # no inner nodes: parse, cut requirements, join and capacity re-check only
    "flat-tree": lambda: SolveWorkload("flat-tree", [(k, 0) for k in range(100, 121) for _ in range(2)], flat=True),
    # Dinic on graphs that never change, half of them with a deficit
    "audit-verify": lambda: AuditVerify([(k, k // 3) for k in range(14, 22) for _ in range(4)]),
}


# 2**16 integers, about 2 MB with their objects: more than a core's own
# caches hold, as the program's dictionaries and lists are
_CAL_TABLE = random.Random(0).choices(range(1 << 20), k=1 << 16)


def calibrate():
    """Seconds one fixed pure-Python kernel takes now.

    The host runs a thread in speed states far apart that last from a few
    operations to whole runs. The kernel is timed between operations, and each
    time is scaled by CALIBRATION_REF_S over the kernel times around it. The
    kernel reads a table at pseudo-random places and makes no container
    objects, so it triggers no garbage collection and its time does not depend
    on the program's heap.
    """
    table, mask = _CAL_TABLE, len(_CAL_TABLE) - 1
    start = time.perf_counter()
    j = 1
    total = 0
    for _ in range(CALIBRATION_STEPS):
        j = (j * 1103515245 + 12345 + table[j & mask]) & 0xFFFFFFF
        total += table[(j >> 4) & mask]
    return time.perf_counter() - start


def timed_setup(workload, seed):
    """Repeat the set-up over at least SETUP_MIN_SECONDS; returns (inputs, median scaled seconds).

    The set-up yields its inputs one by one. The kernel runs whenever
    SETUP_SEGMENT_S of set-up time has passed, and each segment is scaled by
    the mean of the kernel runs on its two sides.
    """
    times = []
    wall = 0.0
    while len(times) < SETUP_MIN_REPEATS or wall < SETUP_MIN_SECONDS:
        gc.collect()  # each repeat starts from the same collected heap
        inputs, total, segment = [], 0.0, 0.0
        before = calibrate()
        items = workload.setup(seed)
        while True:
            start = time.perf_counter()
            item = next(items, None)
            segment += time.perf_counter() - start
            if item is None or segment >= SETUP_SEGMENT_S:
                after = calibrate()
                total += segment * 2 * CALIBRATION_REF_S / (before + after)
                wall += segment
                before, segment = after, 0.0
            if item is None:
                break
            inputs.append(item)
        times.append(total)
    return inputs, statistics.median(times)


class Loop:
    """Whole rounds of operations with per-operation timing and checking."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.times = {False: [], True: []}  # wall seconds per operation
        # kernel seconds before the first and after each untraced operation
        self.kernel = [calibrate()]

    def round(self, tracer=None):
        run = self.workload.operation
        for i, item in enumerate(self.inputs):
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    output = run(item)
                else:
                    tracer.enter(OP)
                    try:
                        output = run(item)
                    finally:
                        tracer.exit()
            except Exception:  # a failed operation is counted, not fatal
                self.failed += 1
                if self.failed == 1:
                    traceback.print_exc()
                continue
            self.times[tracer is not None].append(time.perf_counter() - start)
            if tracer is None:
                self.kernel.append(calibrate())
            self.problems += self.workload.check(i, output)

    def scaled_times(self):
        """Untraced operation times at calibration speed.

        Operation j ran between kernel runs j and j + 1; its time is scaled by
        the median of the CALIBRATION_WINDOW kernel runs on either side, which
        follows the host's state without following one noisy kernel run.
        """
        kernel, half = self.kernel, CALIBRATION_WINDOW
        return [
            seconds * CALIBRATION_REF_S / statistics.median(kernel[max(0, j + 1 - half) : j + 1 + half])
            for j, seconds in enumerate(self.times[False])
        ]


def _percentile(values, share):
    """Smallest sample with at most (1 - share) of the samples above it."""
    ordered = sorted(values)
    return ordered[math.ceil(share * len(ordered)) - 1]


def end_to_end(loop, setup_s):
    times = loop.scaled_times()
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (_percentile(times, TAIL), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, loop, ladder):
    ops = len(loop.times[True])
    inc, cnt = tracer.inclusive, tracer.counts
    op_total = inc[OP]
    unattributed = tracer.self_time[OP]
    flow_total = inc["maxflow.flow"] + inc["maxflow.all_pairs"]
    splits = cnt["splitoff.splits"]

    def per_op(value):
        return value / ops

    metrics = {
        "cli.parse_s": (per_op(inc["cli.parse"]), "s"),
        "model.base_capacity_s": (per_op(inc["model.base_capacity"]), "s"),
        "model.cut_requirement_calls": (per_op(cnt["model.cut_requirement_calls"]), "count"),
        "join.parity_join_s": (per_op(inc["join.parity_join"]), "s"),
        "verify.feasible_capacity_s": (per_op(inc["verify.feasible_capacity"]), "s"),
        "verify.audit_s": (per_op(inc["verify.audit"]), "s"),
        "verify.audit_flows": (per_op(cnt["verify.audit_flows"]), "count"),
        "splitoff.realize_s": (per_op(inc["splitoff.realize"]), "s"),
        "splitoff.activations": (per_op(cnt["splitoff.activations"]), "count"),
        "splitoff.probes": (per_op(cnt["splitoff.probes"]), "count"),
        "splitoff.check_flows": (per_op(cnt["splitoff.check_flows"]), "count"),
        "splitoff.splits": (per_op(splits), "count"),
        "splitoff.flows_per_split": (cnt["splitoff.check_flows"] / splits if splits else 0.0, "flows/split"),
        "maxflow.runs": (per_op(cnt["maxflow.runs"]), "count"),
        "maxflow.flow_s": (per_op(flow_total), "s"),
        "maxflow.s_per_run": (flow_total / cnt["maxflow.runs"] if cnt["maxflow.runs"] else 0.0, "s"),
        "maxflow.snapshot_calls": (per_op(tracer.calls["maxflow.snapshot"]), "count"),
        "maxflow.snapshot_s": (per_op(inc["maxflow.snapshot"]), "s"),
        "solver.solve_s": (per_op(inc["solver.solve"]), "s"),
        "trace.unattributed_s": (per_op(unattributed), "s"),
        "trace.attributed_pct": (100.0 * (1 - unattributed / op_total), "%"),
        "trace.overhead_s": (
            statistics.fmean(loop.times[True]) - statistics.fmean(loop.times[False]),
            "s",
        ),
    }
    for (k, m), runs in ladder.items():
        metrics[f"ladder.{k}x{m}.maxflow_runs"] = (runs, "count")
    return metrics


def run_ladder(problems):
    """maxflow.runs for one solve of each ladder instance; outputs are checked."""
    counts = {}
    for k, m in LADDER:
        doc = cli.generate_document(k, m, 2, 6, 1)
        tracer = Tracer()
        with tracer.installed():
            solution = solver.solve(cli.parse_instance(json.dumps(doc)))
        values = dict(solution.realization.items())
        problems += reference.Reference(doc).check_solution(values, solution.cost)
        counts[(k, m)] = tracer.counts["maxflow.runs"]
    return counts


def write_trace(path, args, tracer, metrics):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "layers": {
            name: {
                "calls": tracer.calls[name],
                "inclusive_s": tracer.inclusive[name],
                "self_s": tracer.self_time[name],
            }
            for name in sorted(tracer.calls)
        },
        "counts": dict(sorted(tracer.counts.items())),
        "span_fields": ["id", "parent", "name", "start_s", "end_s"],
        "spans_first_round": tracer.spans,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problems = [f"self-test: {p}" for p in selftest.run()]
    workload = WORKLOADS[args.workload]()
    inputs, setup_s = timed_setup(workload, args.seed)
    problems += workload.prepare_checks(inputs)

    # The inputs and reference tables are the benchmark's, not the program's:
    # keep them out of the collections the operations trigger.
    gc.collect()
    gc.freeze()
    loop = Loop(workload, inputs)
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while True:
        if tracer is not None and rounds % 2 == 0:
            tracer.keep_spans = rounds == 0
            with tracer.installed():
                loop.round(tracer)
        else:
            loop.round()
        rounds += 1
        if tracer is None:
            done = loop.attempted >= MIN_OPS
        else:
            done = rounds % 2 == 0
        if done and time.perf_counter() >= deadline:
            break

    if not loop.times[tracer is not None]:
        sys.exit(f"bench: all {loop.attempted} operations failed")
    if tracer is None:
        metrics = end_to_end(loop, setup_s)
    else:
        metrics = per_layer(tracer, loop, run_ladder(problems))
        write_trace(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), args, tracer, metrics)
    problems += loop.problems
    for problem in problems[:10]:
        print(f"bench: incorrect: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    wall = loop.times[tracer is not None]
    print(
        f"{args.workload} wall clock: {len(wall) / sum(wall):.6g} ops/s, p50 {statistics.median(wall):.6g} s,"
        f" calibration kernel median {statistics.median(loop.kernel) * 1e3:.3g} ms (reference {CALIBRATION_REF_S * 1e3:g} ms)",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
