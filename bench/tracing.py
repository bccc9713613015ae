"""Spans and counters around the program's public entry points.

`Tracer.installed()` rebinds each entry point, in the module namespace the
benchmark's operations reach it through, to a wrapper that records a span
(name, start, end, parent) and bumps counters; leaving the block restores the
originals. Spans are aggregated as they close (inclusive and self time per
name) and the raw spans of the first traced round are kept for the trace
file.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from treesynth import cli, maxflow, model, solver, splitoff, verify

OP = "op"


class Tracer:
    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []
        self.keep_spans = False
        self._stack = []
        self._next_id = 0

    def enter(self, name):
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else None
        # [name, start, time covered by children, span id, parent span id]
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id, parent])

    def exit(self):
        end = time.perf_counter()
        name, start, child, span_id, parent = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.inclusive[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self.keep_spans:
            self.spans.append((span_id, parent, name, start, end))

    def span(self, name, fn, before=None, after=None):
        """A wrapper of fn that runs inside a span and calls the count hooks."""

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def counter(self, key, fn):
        """A wrapper of fn that only counts its calls."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bindings(self):
        """(owner, attribute, replacement) for every traced entry point."""
        c = self.counts

        def flow_in(layer):
            def before(*_):
                c["maxflow.runs"] += 1
                c[layer] += 1

            return before

        def all_pairs_runs(graph):
            c["maxflow.runs"] += max(len(graph.nodes) - 1, 0)

        def count_splits(result, *_, **__):
            c["splitoff.splits"] += len(result[1])

        return [
            (cli, "parse_instance", self.span("cli.parse", cli.parse_instance)),
            (solver, "solve", self.span("solver.solve", solver.solve)),
            (verify, "verify_realization", self.span("verify.audit", verify.verify_realization)),
            (model.Instance, "base_capacity", self.span("model.base_capacity", model.Instance.base_capacity)),
            (model.Instance, "cut_requirement", self.counter("model.cut_requirement_calls", model.Instance.cut_requirement)),
            (solver, "parity_sets", self.span("join.parity_join", solver.parity_sets)),
            (solver, "min_cost_ij_join", self.span("join.parity_join", solver.min_cost_ij_join)),
            (solver, "verify_feasible_capacity", self.span("verify.feasible_capacity", solver.verify_feasible_capacity)),
            (solver, "realize_capacity", self.span("splitoff.realize", solver.realize_capacity, after=count_splits)),
            (splitoff.SplitState, "__init__", self.counter("splitoff.activations", splitoff.SplitState.__init__)),
            (splitoff, "admissible_amount", self.counter("splitoff.probes", splitoff.admissible_amount)),
            (splitoff, "max_flow", self.span("maxflow.flow", splitoff.max_flow, before=flow_in("splitoff.check_flows"))),
            (verify, "max_flow", self.span("maxflow.flow", verify.max_flow, before=flow_in("verify.audit_flows"))),
            (splitoff, "connectivity_snapshot", self.span("maxflow.snapshot", splitoff.connectivity_snapshot)),
            (maxflow, "all_pairs_connectivity", self.span("maxflow.all_pairs", maxflow.all_pairs_connectivity, before=all_pairs_runs)),
        ]

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, replacement in self._bindings():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
