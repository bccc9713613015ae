#!/usr/bin/env python3
"""Generate a corpus, solve every instance, and print a summary table.

Each row reports the exact optimum, the fractional lower bound, the parity
join surcharge, the split count, and the verification verdict; an instance
the solver refuses for its cut-requirement precondition (possible with
--rmin below 2) is skipped and marked `pre`. Use this to eyeball how the
integrality gap and the amount of splitting work scale with instance size.
Exits 1 only when a solved realization fails verification.

    python3 scripts/batch_experiment.py --count 40 --terminals 8 --inner 3
"""

import argparse
import json
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from treesynth import (
    PreconditionViolated,
    fractional_lower_bound,
    generate_document,
    parse_instance,
    solve,
    verify_realization,
)
from treesynth.cli import format_rational


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--terminals", type=int, default=8, help="max terminals per instance")
    parser.add_argument("--inner", type=int, default=3, help="max inner nodes per instance")
    parser.add_argument("--rmin", type=int, default=2)
    parser.add_argument("--rmax", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0, help="base seed for the batch")
    args = parser.parse_args()

    header = f"{'seed':>6} {'k':>3} {'m':>3} {'bound':>8} {'join':>6} {'cost':>8} {'splits':>6}  ok"
    print(header)
    print("-" * len(header))
    failures = skipped = 0
    for i in range(args.count):
        rng = random.Random((args.seed << 20) + i)
        k = rng.randint(3, max(3, args.terminals))
        m = rng.randint(0, args.inner)
        doc = generate_document(
            terminals=k, inner=m, rmin=args.rmin, rmax=args.rmax, seed=args.seed * 100_000 + i
        )
        instance = parse_instance(json.dumps(doc))
        bound = format_rational(fractional_lower_bound(instance))
        try:
            solution = solve(instance)
        except PreconditionViolated:
            skipped += 1
            print(f"{i:>6} {k:>3} {m:>3} {str(bound):>8} {'-':>6} {'-':>8} {'-':>6}  pre")
            continue
        violations = verify_realization(instance, solution.realization)
        if violations:
            failures += 1
        print(
            f"{i:>6} {k:>3} {m:>3} "
            f"{str(bound):>8} "
            f"{str(format_rational(solution.join.cost)):>6} "
            f"{str(format_rational(solution.cost)):>8} "
            f"{len(solution.trace):>6}  {'yes' if not violations else 'NO'}"
        )
    print("-" * len(header))
    print(f"{args.count} instances, {failures} verification failures, {skipped} skipped (precondition)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
