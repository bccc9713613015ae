"""Shows that the benchmark's reference checks catch damaged outputs.

    python3 bench/selftest.py

The reference connectivity is first compared with brute-force enumeration of
every terminal cut. Then solver outputs must pass, while damaged copies (a
unit removed, a unit added, a wrong reported cost) and wrong verifier
verdicts (missing, altered or spurious deficits) must be rejected. `run.py`
runs this before every measurement; a failure marks the run incorrect.
Exits 1 on any failure.
"""

import json
import os
import sys
from itertools import combinations

import reference

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from treesynth import cli, solver  # noqa: E402


def _solved(terminals, inner, seed):
    doc = cli.generate_document(terminals, inner, 2, 6, seed)
    solution = solver.solve(cli.parse_instance(json.dumps(doc)))
    return reference.Reference(doc), dict(solution.realization.items()), solution.cost


def _cut_connectivity(ref, values):
    """Connectivity of every terminal pair by enumerating all terminal cuts."""
    first, rest = ref.terminals[0], ref.terminals[1:]
    lam = {}
    for mask in range(2 ** len(rest) - 1):
        side = {first} | {t for i, t in enumerate(rest) if mask >> i & 1}
        crossing = sum(y for (u, v), y in values.items() if (u in side) != (v in side))
        for s, t in combinations(sorted(ref.terminals), 2):
            if (s in side) != (t in side) and crossing < lam.get((s, t), crossing + 1):
                lam[(s, t)] = crossing
    return lam


def _changed(values, pair, delta):
    out = dict(values)
    out[pair] = out.get(pair, 0) + delta
    return out


def run():
    """Failures of the reference checks; an empty list means they hold."""
    try:
        return _run()
    except Exception as exc:  # a broken program must mark the run, not end it
        return [f"self-test raised {exc!r}"]


def _run():
    failures = []

    def expect(condition, what):
        if not condition:
            failures.append(what)

    ref, values, cost = _solved(8, 2, 3)
    expect(not ref.check_solution(values, cost), "a solver output on 8/2 is rejected")
    pair = next(p for p in sorted(values) if ref.distance(*p) > 0)
    short = _changed(values, pair, -1)
    for graph in (values, short):
        expect(
            ref.connectivity(graph) == _cut_connectivity(ref, graph),
            "Gusfield connectivity disagrees with cut enumeration",
        )
    # one unit fewer on a positive-length pair is cheaper than the optimum,
    # so it must miss a requirement as well as the cost
    problems = ref.check_solution(short, ref.cost(short))
    expect(any("missed" in p for p in problems), "a unit removed passes the flow check")
    expect(any("optimum" in p for p in problems), "a unit removed passes the cost check")
    extra = _changed(values, pair, 1)
    expect(ref.check_solution(extra, ref.cost(extra)), "a unit added passes")
    expect(ref.check_solution(values, cost + 1), "a wrong reported cost passes")

    ref, values, cost = _solved(10, 0, 4)
    expect(not ref.check_solution(values, cost, flat=True), "a solver output on a flat tree is rejected")
    edge = sorted(values)[0]
    short = _changed(values, edge, -1)
    problems = ref.check_solution(short, ref.cost(short), flat=True)
    expect(any("missed" in p for p in problems), "a tree edge one unit short passes the flow check")
    expect(any("tree edges" in p for p in problems), "a tree edge one unit short passes the flat check")
    off_tree = next(p for p in combinations(sorted(ref.terminals), 2) if p not in values)
    extra = _changed(values, off_tree, 1)
    expect(
        any("tree edges" in p for p in ref.check_solution(extra, ref.cost(extra), flat=True)),
        "a unit off the tree edges passes the flat check",
    )

    expected = ref.deficits(short)
    if not expected:
        return failures + ["a tree edge one unit short shows no deficit"]
    s, t, d = expected[0]
    spurious = next((a, b, 1) for a, b in combinations(sorted(ref.terminals), 2) if (a, b) not in {e[:2] for e in expected})
    wrong_verdicts = [[], expected[1:], [(s, t, d + 1)] + expected[1:], sorted(expected + [spurious])]
    for verdict in wrong_verdicts:
        expect(reference.check_verdict(verdict, expected), f"wrong verdict {verdict[:2]} passes")
    expect(not reference.check_verdict(list(expected), expected), "the reference verdict is rejected")
    expect(not reference.check_verdict([], ref.deficits(values)), "an empty verdict on an intact realization is rejected")
    return failures


if __name__ == "__main__":
    found = run()
    for failure in found:
        print(f"selftest: FAIL {failure}", file=sys.stderr)
    print("selftest: ok" if not found else f"selftest: {len(found)} failure(s)")
    sys.exit(1 if found else 0)
