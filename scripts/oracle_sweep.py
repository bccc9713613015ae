#!/usr/bin/env python3
"""Sweep small random instances and compare the solver to exhaustive search.

Every instance is solved twice: by the polynomial pipeline and by the
brute-force enumerator, and the solver's realization is audited by max-flow.
A cost disagreement or a failed audit is printed with the full instance
document so it can be replayed. An instance the solver refuses for its
cut-requirement precondition (possible with --rmin below 2) is skipped and
counted in the summary. Exits nonzero on the first batch with
disagreements.

    python3 scripts/oracle_sweep.py --count 200 --rmax 3
"""

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from treesynth import (
    PreconditionViolated,
    brute_force_insp,
    generate_document,
    parse_instance,
    solve,
    verify_realization,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--terminals", type=int, default=4, help="max terminals (brute force caps at 5)")
    parser.add_argument("--inner", type=int, default=2)
    parser.add_argument("--rmin", type=int, default=2)
    parser.add_argument("--rmax", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    disagreements = skipped = 0
    for i in range(args.count):
        rng = random.Random((args.seed << 20) + i)
        doc = generate_document(
            terminals=rng.randint(2, args.terminals),
            inner=rng.randint(0, args.inner),
            rmin=args.rmin,
            rmax=args.rmax,
            seed=args.seed * 100_000 + i,
        )
        instance = parse_instance(json.dumps(doc))
        try:
            solution = solve(instance)
        except PreconditionViolated:
            skipped += 1
            continue
        fast = solution.cost
        slow = instance.realization_cost(brute_force_insp(instance))
        deficits = verify_realization(instance, solution.realization)
        if fast != slow or deficits:
            disagreements += 1
            print(f"DISAGREEMENT at instance {i}: solver {fast}, exhaustive {slow}, deficits {deficits}")
            print(json.dumps(doc, indent=2))
    elapsed = time.perf_counter() - start
    print(
        f"{args.count} instances in {elapsed:.1f}s, {skipped} skipped (precondition): "
        + ("all agree" if not disagreements else f"{disagreements} DISAGREEMENTS")
    )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
